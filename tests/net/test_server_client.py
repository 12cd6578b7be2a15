"""CamServer + CamClient end to end over loopback.

No pytest-asyncio in the toolchain: every scenario is a coroutine run
to completion with ``asyncio.run`` inside a plain sync test (same
idiom as ``tests/service/test_async_service.py``).
"""

import asyncio
import socket

import pytest

from repro import obs
from repro.core import ReferenceCam, binary_entry, unit_for_entries
from repro.errors import (
    ConfigError,
    FrameTooLargeError,
    NetError,
    ProtocolError,
    RequestTimeoutError,
    ServiceOverloadError,
)
from repro.net import CamClient, CamServer, protocol
from repro.net import server as server_module
from repro.net.channel import HIGH_WATER
from repro.net.protocol import Opcode
from repro.service import CamService, ShardedCam

WIDTH = 16


def make_cam(shards=2, entries=64):
    config = unit_for_entries(entries, block_size=16, data_width=WIDTH,
                              bus_width=128)
    return ShardedCam(config, shards=shards, engine="batch")


def run(coro):
    return asyncio.run(coro)


def serving(cam=None, *, service_kwargs=None, **server_kwargs):
    """Context helper: started CamService wrapped by a CamServer."""

    class _Ctx:
        async def __aenter__(self):
            self.service = CamService(cam or make_cam(),
                                      **(service_kwargs or {}))
            await self.service.start()
            self.server = CamServer(self.service, port=0, **server_kwargs)
            await self.server.start()
            return self.server

        async def __aexit__(self, exc_type, exc, tb):
            await self.server.stop()
            await self.service.stop()

    return _Ctx()


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"max_connections": 0},
    {"idle_timeout_s": 0},
    {"max_frame_size": 0},
])
def test_server_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        CamServer(CamService(make_cam()), **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"pool_size": 0},
    {"request_timeout_s": 0},
    {"max_retries": -1},
])
def test_client_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        CamClient("127.0.0.1", 1, **kwargs)


# ----------------------------------------------------------------------
# request/response basics
# ----------------------------------------------------------------------
def test_full_request_surface_over_loopback():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                inserted = await client.insert([7, 42, 99])
                assert inserted.ok and inserted.stats.words == 3

                hit = await client.lookup(42)
                assert hit.ok and hit.result.hit

                miss = await client.lookup(1234)
                assert miss.ok and not miss.result.hit

                deleted = await client.delete(42)
                assert deleted.ok and deleted.result.hit
                assert not (await client.lookup(42)).result.hit

                many = await client.lookup_many([7, 99, 5000])
                assert [r.result.hit for r in many] == [True, True, False]

                assert await client.ping(b"echo") < 1.0

                stats = await client.stats()
                # occupancy counts delete holes; live entries do not
                assert stats["cam"]["occupancy"] == 3
                assert stats["server"]["decode_errors"] == 0

                snap = await client.snapshot()
                assert snap.live_entries == 2
    run(scenario())


def test_pipelined_requests_share_one_connection():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port, pool_size=1) as client:
                await client.insert(list(range(1, 33)))
                responses = await asyncio.gather(*[
                    client.lookup(key) for key in range(1, 33)
                ])
                assert all(r.ok and r.result.hit for r in responses)
            assert server.stats.connections_opened == 1
    run(scenario())


def test_batch_lookup_is_one_frame():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                await client.insert([1, 2, 3])
                before = server.stats.frames_in
                await client.lookup_many(list(range(1, 17)))
                assert server.stats.frames_in == before + 1
    run(scenario())


# ----------------------------------------------------------------------
# limits
# ----------------------------------------------------------------------
def test_max_connections_rejects_excess_with_overloaded():
    async def scenario():
        async with serving(max_connections=1) as server:
            host, port = server.address
            async with CamClient(host, port) as first:
                await first.ping()
                extra = CamClient(host, port, max_retries=0)
                with pytest.raises((ServiceOverloadError, NetError)):
                    async with extra:
                        await extra.ping()
                assert server.stats.connections_rejected >= 1
    run(scenario())


def test_oversized_frame_answered_then_connection_dropped():
    async def scenario():
        async with serving(max_frame_size=128) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_frame(
                Opcode.PING, 1, b"x" * 4096
            ))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                data = await reader.read(4096)
                assert data, "server hung up without an error frame"
                frames = decoder.feed(data)
            assert frames[0].opcode is Opcode.ERROR
            code, _ = protocol.decode_error(frames[0].payload)
            assert code == protocol.ErrorCode.FRAME_TOO_LARGE
            assert await reader.read(4096) == b""  # then: hang up
            writer.close()
            assert server.stats.decode_errors == 1
    run(scenario())


def test_garbage_bytes_counted_as_decode_error():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET / HTTP/1.1\r\n\r\n")
            await writer.drain()
            data = await reader.read(4096)
            frame = protocol.decode_frame(data)
            assert frame.opcode is Opcode.ERROR
            writer.close()
            assert server.stats.decode_errors == 1
    run(scenario())


def test_idle_timeout_closes_connection():
    async def scenario():
        async with serving(idle_timeout_s=0.05) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            assert await reader.read(4096) == b""  # closed on us
            writer.close()
            assert server.stats.idle_closed == 1
    run(scenario())


def test_idle_timeout_runs_from_the_last_read():
    """A connection that PINGs four times per idle timeout stays open
    for three timeouts; once it goes silent it is closed."""
    timeout = 0.2

    async def scenario():
        async with serving(idle_timeout_s=timeout) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            decoder = protocol.FrameDecoder()
            for request_id in range(12):
                writer.write(protocol.encode_frame(Opcode.PING, request_id))
                frames = []
                while not frames:
                    data = await reader.read(4096)
                    assert data, "closed while the client was active"
                    frames = decoder.feed(data)
                assert frames[0].opcode is Opcode.PONG
                await asyncio.sleep(timeout / 4)
            assert server.stats.idle_closed == 0
            assert await reader.read(4096) == b""  # silent: closed
            writer.close()
            assert server.stats.idle_closed == 1
    run(scenario())


def test_a_client_that_stops_reading_stops_the_servers_intake():
    """A peer that reads nothing fills both socket buffers; the server
    then stops reading its frames instead of queueing answers without
    bound. Once the peer reads, every PONG arrives, in order."""
    count, size = 64, 64 * 1024  # 4 MiB against ~0.6 MiB of buffers

    async def scenario():
        async with serving() as server:
            # accepted sockets inherit the listener's send buffer
            server._server.sockets[0].setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            raw.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                raw, server.address)
            reader, writer = await asyncio.open_connection(sock=raw)
            payloads = [bytes([i]) * size for i in range(count)]
            try:
                writer.write(b"".join(
                    protocol.encode_frame(Opcode.PING, i, payload)
                    for i, payload in enumerate(payloads)))
                stalled = -1
                while stalled != server.stats.frames_in:
                    stalled = server.stats.frames_in
                    await asyncio.sleep(0.05)
                assert 0 < stalled < count
                decoder = protocol.FrameDecoder()
                answers = []
                while len(answers) < count:
                    data = await reader.read(1 << 20)
                    assert data
                    answers.extend(decoder.feed(data))
            finally:
                writer.transport.abort()  # close() would wait to drain
            assert [(f.opcode, f.request_id, f.payload) for f in answers] \
                == [(Opcode.PONG, i, p) for i, p in enumerate(payloads)]
            assert server.stats.frames_in == count
    run(scenario())


def test_response_opcode_from_client_is_rejected():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_frame(Opcode.PONG, 9, b""))
            await writer.drain()
            frame = protocol.decode_frame(await reader.read(4096))
            assert frame.opcode is Opcode.ERROR
            assert frame.request_id == 9
            writer.close()
    run(scenario())


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_drain_completes_in_flight_and_rejects_new():
    """The ISSUE acceptance scenario: requests admitted before drain
    complete successfully; frames arriving during the drain window
    resolve as RETRY_LATER; nothing is torn down mid-parse."""

    async def scenario():
        cam = make_cam()
        # A long micro-batch window keeps admitted requests parked in
        # the service queue, so drain provably overlaps them.
        async with serving(cam,
                           service_kwargs={"max_delay_s": 0.1,
                                           "max_batch": 64}) as server:
            host, port = server.address
            async with CamClient(host, port, max_retries=0) as client:
                await client.insert([5, 6, 7])
                in_flight = [asyncio.ensure_future(client.lookup(5))
                             for _ in range(16)]
                # Wait until every frame is admitted by the service...
                while server.service.stats.admitted < 17:
                    await asyncio.sleep(0.001)
                # ...then drain while they are still queued.
                drain = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.005)
                late = asyncio.ensure_future(client.lookup(6))
                responses = await asyncio.gather(*in_flight)
                assert all(r.ok and r.result.hit for r in responses), \
                    "in-flight requests must complete during drain"
                with pytest.raises(NetError, match="draining"):
                    await late
                await drain
            assert server.stats.decode_errors == 0
            assert server.stats.retry_later >= 1
    run(scenario())


def test_connections_during_drain_are_turned_away():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                await client.ping()
                await server.stop()
                late = CamClient(host, port, max_retries=0)
                try:
                    # Lazy connect: the refused connection surfaces as
                    # a typed NetError, not a raw OSError.
                    with pytest.raises(NetError):
                        await late.ping()
                finally:
                    await late.close()
    run(scenario())


# ----------------------------------------------------------------------
# connection loss, retry, exactly-once
# ----------------------------------------------------------------------
def test_client_reconnects_after_kill():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                await client.insert([11, 22])
                client.kill_connections()
                response = await client.lookup(11)
                assert response.ok and response.result.hit
                assert client.kills == 1
            assert server.stats.connections_opened == 2
    run(scenario())


def test_mutations_exactly_once_across_kills():
    """Retried INSERT frames reuse their idempotency token, so a kill
    storm cannot duplicate (or lose) updates."""

    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port, max_retries=5) as client:
                expected = 0
                for wave in range(6):
                    words = [wave * 10 + i for i in range(1, 4)]
                    pending = asyncio.ensure_future(client.insert(words))
                    # Let the frame reach the wire (and possibly the
                    # server) before severing, so some waves retry a
                    # mutation the server already applied.
                    for _ in range(wave):
                        await asyncio.sleep(0)
                    client.kill_connections()
                    response = await pending
                    assert response.ok
                    expected += len(words)
                stats = await client.stats()
                assert stats["cam"]["occupancy"] == expected
            assert server.stats.decode_errors == 0
    run(scenario())


def test_dedupe_cache_answers_repeated_token():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            token = b"t" * protocol.TOKEN_SIZE
            payload = protocol.encode_mutation(token, [77])
            for request_id in (1, 2):
                writer.write(protocol.encode_frame(
                    Opcode.INSERT, request_id, payload
                ))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            frames = []
            while len(frames) < 2:
                frames.extend(decoder.feed(await reader.read(4096)))
            assert [f.opcode for f in frames] == [Opcode.UPDATED] * 2
            assert frames[0].payload == frames[1].payload
            writer.close()
            assert server.stats.dedupe_hits == 1
            assert server.service.cam.occupancy == 1  # applied once
    run(scenario())


def test_naive_client_serializes_requests():
    async def scenario():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port, pipelined=False) as client:
                await client.insert([1, 2, 3])
                responses = await asyncio.gather(*[
                    client.lookup(k) for k in (1, 2, 3)
                ])
                assert all(r.ok and r.result.hit for r in responses)
    run(scenario())


def test_naive_pool_keeps_one_request_in_flight_per_connection():
    """A naive client serialises per pool slot, not client-wide: two
    concurrent lookups on a two-slot pool are in flight at once, one on
    each connection, against a listener that never answers."""

    async def scenario():
        arrived = []
        both = asyncio.Event()
        hold = asyncio.Event()

        async def silent(reader, writer):
            await reader.read(1)
            arrived.append(writer)
            if len(arrived) == 2:
                both.set()
            await hold.wait()
            writer.close()

        listener = await asyncio.start_server(silent, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        client = CamClient("127.0.0.1", port, pool_size=2, pipelined=False)
        lookups = [asyncio.ensure_future(client.lookup(key))
                   for key in (1, 2)]
        try:
            await asyncio.wait_for(both.wait(), timeout=10)
            assert all(conn.pending for conn in client._pool)
        finally:
            for lookup in lookups:
                lookup.cancel()
            await asyncio.gather(*lookups, return_exceptions=True)
            await client.close()
            hold.set()
            listener.close()
            await listener.wait_closed()
    run(scenario())


def test_expired_insert_is_not_applied_and_its_resend_is_deduped():
    """The service's admission deadline is the only request deadline:
    an INSERT parked in a batch window longer than that deadline is
    answered UPDATED with status ``timeout`` and never applied, and the
    same frame resent is answered from the idempotency table."""

    async def scenario():
        async with serving(service_kwargs={"max_delay_s": 0.2,
                                           "request_timeout_s": 0.05}
                           ) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            payload = protocol.encode_mutation(
                b"d" * protocol.TOKEN_SIZE, [5, 6, 7]
            )
            decoder = protocol.FrameDecoder()
            frames = []
            for request_id in (1, 2):
                writer.write(protocol.encode_frame(
                    Opcode.INSERT, request_id, payload
                ))
                await writer.drain()
                while len(frames) < request_id:
                    frames.extend(decoder.feed(await reader.read(4096)))
            writer.close()
            assert [f.opcode for f in frames] == [Opcode.UPDATED] * 2
            status, stats, _ = protocol.decode_update_ack(frames[0].payload)
            assert status == "timeout" and stats.words == 0
            assert frames[1].payload == frames[0].payload
            assert server.stats.dedupe_hits == 1
            assert server.service.stats.timeouts == 1
            assert server.service.cam.occupancy == 0  # applied never
    run(scenario())


def test_kill_during_every_insert_never_duplicates():
    """Deterministic worst case: sever the connection immediately
    after *every* insert hits the wire."""

    async def scenario():
        service = CamService(make_cam(), max_delay_s=0.001)
        await service.start()
        server = CamServer(service, port=0)
        await server.start()
        try:
            host, port = server.address
            async with CamClient(host, port, max_retries=6) as client:
                expected = 0
                for wave in range(8):
                    words = [wave * 4 + i for i in range(1, 4)]
                    pending = asyncio.ensure_future(client.insert(words))
                    for _ in range(wave % 3):
                        await asyncio.sleep(0)
                    client.kill_connections()
                    response = await pending
                    assert response.ok and response.stats.words == 3
                    expected += 3
                assert service.cam.occupancy == expected
        finally:
            await server.stop()
            await service.stop()

    asyncio.run(scenario())


def test_multi_key_delete_frame_equals_sequential_deletes():
    """A 4-key DELETE frame (one key repeated) answers and leaves the
    CAM exactly as four sequential deletes and the reference model do,
    in fewer shard dispatches than four."""
    stored = [5, 9, 5, 17, 33, 9, 40]
    keys = [5, 9, 5, 21]

    async def framed():
        service = CamService(make_cam(), max_delay_s=0.001, max_batch=64)
        await service.start()
        server = CamServer(service, port=0)
        await server.start()
        try:
            host, port = server.address
            async with CamClient(host, port) as client:
                assert (await client.insert(stored)).ok
            before = service.stats.dispatches
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_frame(
                Opcode.DELETE, 1,
                protocol.encode_mutation(b"k" * protocol.TOKEN_SIZE, keys),
            ))
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(await reader.read(4096))
            writer.close()
            dispatches = service.stats.dispatches - before
            assert frames[0].opcode is Opcode.RESULT
            answers = protocol.decode_results(frames[0].payload)
            return answers, service.cam.snapshot().content_hash(), dispatches
        finally:
            await server.stop()
            await service.stop()

    async def sequential():
        service = CamService(make_cam(), max_delay_s=0.001, max_batch=64)
        async with service:
            assert (await service.insert(stored)).ok
            before = service.stats.dispatches
            answers = [await service.delete(key) for key in keys]
            dispatches = service.stats.dispatches - before
            return ([(a.status, a.result) for a in answers],
                    service.cam.snapshot().content_hash(), dispatches)

    framed_answers, framed_hash, framed_dispatches = asyncio.run(framed())
    answers, content, dispatches = asyncio.run(sequential())
    assert framed_answers == answers
    assert framed_hash == content
    assert framed_dispatches < 4 <= dispatches
    gold = ReferenceCam(64)
    gold.update([binary_entry(v, WIDTH) for v in stored])
    assert [result for _, result in framed_answers] \
        == [gold.delete(key) for key in keys]


# ----------------------------------------------------------------------
# coalesced writes: one socket write per loop turn, frames still counted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pool_size", [1, 2])
def test_racing_lazy_connects_open_one_socket_per_slot(pool_size):
    """A burst on a client that never called ``connect()`` shares one
    connect per pool slot, before and after a kill."""

    async def until(condition):
        for _ in range(2000):
            if condition():
                return
            await asyncio.sleep(0.001)
        raise AssertionError("condition never held")

    async def scenario():
        async with serving() as server:
            host, port = server.address
            client = CamClient(host, port, pool_size=pool_size)
            try:
                for burst in (1, 2):
                    responses = await asyncio.gather(*[
                        client.lookup(key) for key in range(16)
                    ])
                    assert all(r.ok for r in responses)
                    assert server.stats.connections_opened == \
                        burst * pool_size
                    await until(
                        lambda: server.active_connections == pool_size)
                    client.kill_connections()
            finally:
                await client.close()
    run(scenario())


def test_coalesced_responses_still_count_frames(monkeypatch):
    """Responses queued together leave in fewer writes than frames, and
    ``frames_out``/``bytes_out`` and ``net_frames_total`` count frames."""
    writes = []

    class CountingTransport:
        def __init__(self, transport):
            self.transport = transport

        def write(self, data):
            writes.append(len(data))
            self.transport.write(data)

        def __getattr__(self, name):
            return getattr(self.transport, name)

    made = server_module._Connection.connection_made
    monkeypatch.setattr(
        server_module._Connection, "connection_made",
        lambda conn, transport: made(conn, CountingTransport(transport)))
    frames = 32

    async def scenario():
        async with serving() as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(protocol.encode_frame(Opcode.PING, i, b"p")
                                  for i in range(frames)))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            answers, received = [], 0
            while len(answers) < frames:
                data = await reader.read(4096)
                assert data
                received += len(data)
                answers.extend(decoder.feed(data))
            writer.close()
            assert [f.request_id for f in answers] == list(range(frames))
            assert server.stats.frames_out == frames
            assert server.stats.bytes_out == received
            registry = obs.metrics()
            assert registry.counter("net_frames_total").value(
                direction="out") == frames
            assert registry.counter("net_bytes_total").value(
                direction="out") == received

    obs.reset()
    obs.enable(tracing=False)
    try:
        run(scenario())
    finally:
        obs.disable()
        obs.reset()
    server_writes = len(writes)
    assert 1 <= server_writes < frames


def test_a_burst_past_64_kib_is_written_within_its_loop_turn():
    """256 16-KiB PINGs, then twelve 64-key LOOKUP frames, all sent in
    one loop turn: the outbox is written each time it passes the 64 KiB
    high-water mark (every fourth PING), before the turn ends, and the
    lookups wait for the paused transport. Every answer equals the
    in-process service's."""
    stored = list(range(1, 65, 2))
    probes = [[(frame * 64 + i) % 128 for i in range(64)]
              for frame in range(12)]

    def signature(response):
        return (response.status, response.result.hit,
                response.result.address, response.result.match_vector)

    async def over_the_wire():
        async with serving() as server:
            async with CamClient(*server.address, pool_size=1) as client:
                await client.insert(stored)
                conn = client._pool[0]
                # a small send buffer: 4 MiB cannot all fit in the kernel
                conn.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
                writes = []
                write = conn.transport.write
                conn.transport.write = lambda data: (writes.append(len(data)),
                                                     write(data))
                pings = [asyncio.ensure_future(client.ping(bytes(16 << 10)))
                         for _ in range(256)]
                lookups = [asyncio.ensure_future(client.lookup_many(keys))
                           for keys in probes]
                await asyncio.sleep(0)  # every request sends in this turn
                assert len(writes) == 64
                assert min(writes) > HIGH_WATER
                assert not conn.writable.done()
                # the LOOKUPs wait for the turn's own flush
                assert len(conn.outbox) == len(probes)
                await asyncio.gather(*pings)
                responses = await asyncio.gather(*lookups)
            return [[signature(r) for r in frame] for frame in responses]

    async def in_process():
        async with CamService(make_cam()) as service:
            await service.insert(stored)
            return [[signature(r) for r in await service.lookup_many(keys)]
                    for keys in probes]

    wire = run(over_the_wire())
    assert wire == run(in_process())
    assert any(hit for frame in wire for _, hit, _, _ in frame)


def test_deep_pipelined_burst_answers_like_the_in_process_service():
    stored = list(range(1, 65)) + [3, 9]  # duplicates: priority ties
    probes = [(key * 7) % 90 for key in range(128)]

    def signature(response):
        return (response.status, response.result.hit,
                response.result.address, response.result.match_vector)

    async def over_the_wire():
        async with serving() as server:
            async with CamClient(*server.address, pool_size=1) as client:
                await client.insert(stored)
                responses = await asyncio.gather(*[
                    client.lookup(key) for key in probes
                ])
            assert server.stats.connections_opened == 1
            return [signature(r) for r in responses]

    async def in_process():
        async with CamService(make_cam()) as service:
            await service.insert(stored)
            responses = await asyncio.gather(*[
                service.lookup(key) for key in probes
            ])
            return [signature(r) for r in responses]

    wire = run(over_the_wire())
    assert wire == run(in_process())
    assert any(hit for _, hit, _, _ in wire)
    assert not all(hit for _, hit, _, _ in wire)


def test_late_answer_times_out_and_is_dropped():
    """An answer later than ``request_timeout_s`` fails its request with
    RequestTimeoutError; the late frame, when it comes, matches nothing
    and the connection keeps serving."""

    async def scenario():
        async with serving() as server:
            service = server.service
            gate = asyncio.Event()
            answer = service.lookup_many

            async def held(keys):
                await gate.wait()
                return await answer(keys)

            async with CamClient(*server.address, request_timeout_s=0.05,
                                 max_retries=0) as client:
                await client.insert([5])
                service.lookup_many = held
                with pytest.raises(NetError) as info:
                    await client.lookup(5)
                assert isinstance(info.value.__cause__, RequestTimeoutError)
                del service.lookup_many
                sent = server.stats.frames_out
                gate.set()
                while server.stats.frames_out == sent:
                    await asyncio.sleep(0.001)
                # The late RESULT is on the wire ahead of this PONG, so
                # the client has read (and dropped) it once PING returns.
                await client.ping()
                assert not client._pool[0].pending
                response = await client.lookup(5)
                assert response.ok and response.result.hit
    run(scenario())


def test_kill_with_frames_still_buffered_applies_each_mutation_once():
    async def scenario():
        async with serving() as server:
            async with CamClient(*server.address, max_retries=5) as client:
                waves = [[wave * 10 + i for i in range(1, 4)]
                         for wave in range(8)]
                pending = [asyncio.ensure_future(client.insert(words))
                           for words in waves]
                await asyncio.sleep(0)  # each insert buffers its frame
                assert len(client._pool[0].outbox) == len(waves)
                client.kill_connections()
                responses = await asyncio.gather(*pending)
                assert all(r.ok and r.stats.words == 3 for r in responses)
                assert client.retries == len(waves)
                stats = await client.stats()
                assert stats["cam"]["occupancy"] == 3 * len(waves)
            # the buffered frames never reached the server
            assert server.stats.dedupe_hits == 0
            assert server.stats.decode_errors == 0
    run(scenario())


# ----------------------------------------------------------------------
# the write edge: a bad word is the client's error, never a shard fault
# ----------------------------------------------------------------------
def test_insert_of_a_word_past_int64_is_an_error_not_a_shard_fault():
    """INSERT [2^63] at R = 2 answers ``error`` with no shard touched;
    the shard it would route to keeps taking writes."""
    config = unit_for_entries(64, block_size=16, data_width=WIDTH,
                              bus_width=128)
    cam = ShardedCam(config, shards=4, engine="batch", replicas=2)
    shard = cam.policy.shard_for_key(1 << 63)

    async def scenario():
        async with serving(cam) as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                bad = await client.insert([1 << 63])
                assert bad.status == "error"
                assert cam.poisoned_shards == () == cam.degraded_shards
                assert cam.occupancy == 0
                # 0 routes where 2^63 does (both mask to 0)
                good = await client.insert([0, 1])
                assert good.ok and good.stats.words == 2
                assert (await client.lookup(0)).result.hit
            assert server.service.stats.shard_failures == 0
        assert cam.shards_for_key(0) == [shard]
    run(scenario())


def test_rejected_insert_carries_the_service_error_message():
    """A rejected INSERT reaches the client with the same ``error`` the
    in-process service gives, not ``None``."""
    bad_words = [3, 1 << WIDTH]

    async def in_process():
        async with CamService(make_cam()) as service:
            return await service.insert(bad_words)

    async def over_the_wire():
        async with serving() as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                return await client.insert(bad_words)

    local, remote = run(in_process()), run(over_the_wire())
    assert local.status == remote.status == "error"
    assert local.error and remote.error == local.error


@pytest.mark.parametrize("wire", [False, True], ids=["service", "wire"])
def test_a_key_past_int64_is_an_error_beside_a_good_key(wire):
    """``lookup(2^63)`` gathered beside ``lookup(7)`` answers ``error``
    while 7 still answers ``ok``, and ``delete(2^63)`` answers
    ``error``: the key is turned away before it joins a shard run, so
    no replica is fenced."""
    config = unit_for_entries(64, block_size=16, data_width=WIDTH,
                              bus_width=128)
    cam = ShardedCam(config, shards=2, engine="batch", replicas=2)

    async def scenario():
        async with serving(cam) as server:
            host, port = server.address
            async with CamClient(host, port) as client:
                api = client if wire else server.service
                assert (await api.insert([7])).ok
                good, bad = await api.lookup_many([7, 1 << 63])
                deleted = await api.delete(1 << 63)
                assert (await api.lookup(7)).ok
            return good, bad, deleted, server.service.stats

    good, bad, deleted, stats = run(scenario())
    assert good.ok and good.result.hit and good.result.address == 0
    assert (bad.status, bad.result.hit) == ("error", False)
    assert deleted.status == "error" and not deleted.result.hit
    assert cam.poisoned_shards == () == cam.degraded_shards
    assert stats.shard_failures == 0 and stats.client_errors == 2
