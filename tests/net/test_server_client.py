"""CamServer + CamClient end to end over loopback.

No pytest-asyncio in the toolchain: every scenario is a coroutine run
to completion with ``asyncio.run`` inside a plain sync test (same
idiom as ``tests/service/test_async_service.py``).
"""

import asyncio

import pytest

from repro import obs
from repro.core import unit_for_entries
from repro.errors import (
    ConfigError,
    FrameTooLargeError,
    NetError,
    ProtocolError,
    RequestTimeoutError,
    ServiceOverloadError,
)
from repro.net import CamClient, CamServer, protocol
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
            status, stats = protocol.decode_update_ack(frames[0].payload)
            assert status == "timeout" and stats.words == 0
            assert frames[1].payload == frames[0].payload
            assert server.stats.dedupe_hits == 1
            assert server.service.stats.timeouts == 1
            assert server.service.cam.occupancy == 0  # applied never
    run(scenario())


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
    original = asyncio.StreamWriter.write

    def counting(writer, data):
        writes.append(len(data))
        return original(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
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
    server_writes = len(writes) - 1  # the one client write
    assert 1 <= server_writes < frames


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
