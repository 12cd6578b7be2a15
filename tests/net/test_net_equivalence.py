"""Network path proven result-identical to the in-process service.

The same randomized insert/lookup/delete tape runs through three
stacks:

1. ``CamClient -> CamServer -> CamService -> ShardedCam`` (network),
2. ``CamService -> ShardedCam`` in-process (same construction),
3. the golden :class:`ReferenceCam`.

Every lookup/delete answer must be **bit-identical** across all three
-- hit flag, matched address and the raw per-cell match vector -- and
insert acks must agree on word counts. A second suite injects a
connection kill mid-tape and proves the retry machinery loses and
duplicates nothing: responses stay bit-identical and the final CAM
content hashes match.

(No pytest-asyncio: scenarios run via ``asyncio.run`` inside sync
tests, same idiom as the service suites.)
"""

import asyncio
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ReferenceCam, binary_entry, unit_for_entries
from repro.net import CamClient, CamServer, protocol
from repro.net.protocol import Opcode
from repro.service import CamService, ShardedCam

WIDTH = 12
#: Tiny key space so duplicates (priority ties) are common.
keys = st.integers(min_value=0, max_value=63)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.lists(keys, min_size=1, max_size=5)),
        st.tuples(st.just("lookup"), keys),
        st.tuples(st.just("delete"), keys),
    ),
    min_size=1,
    max_size=20,
)

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"
EXAMPLES = 25 if _DEEP else 8

common_settings = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_cam():
    config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                              bus_width=64)
    return ShardedCam(config, shards=2, engine="batch")


def bound_workload(workload):
    """Drop inserts that could overflow a single hash-skewed shard."""
    cam = make_cam()
    budget = cam.sessions[0].capacity
    live = 0
    bounded = []
    for op, arg in workload:
        if op == "insert":
            if live + len(arg) > budget:
                continue
            live += len(arg)
        bounded.append((op, arg))
    return bounded


def signature(response):
    """Everything observable about one response, for exact diffing."""
    if response.result is not None:
        return (response.kind, response.status, response.result.hit,
                response.result.address, response.result.match_vector)
    if response.stats is not None:
        return (response.kind, response.status, response.stats.words)
    return (response.kind, response.status)


async def run_network_tape(workload, *, kill_at=None):
    """The tape through the full network stack; returns (signatures,
    final content hash)."""
    service = CamService(make_cam(), max_delay_s=0.001, max_batch=64)
    await service.start()
    server = CamServer(service, port=0)
    await server.start()
    try:
        host, port = server.address
        async with CamClient(host, port, max_retries=6) as client:
            out = []
            for index, (op, arg) in enumerate(workload):
                if kill_at is not None and index == kill_at:
                    client.kill_connections()
                if op == "insert":
                    out.append(signature(await client.insert(arg)))
                elif op == "lookup":
                    out.append(signature(await client.lookup(arg)))
                else:
                    out.append(signature(await client.delete(arg)))
        content = service.cam.snapshot().content_hash()
        return out, content, server
    finally:
        await server.stop()
        await service.stop()


async def run_inprocess_tape(workload):
    service = CamService(make_cam(), max_delay_s=0.001, max_batch=64)
    out = []
    async with service:
        for op, arg in workload:
            if op == "insert":
                out.append(signature(await service.insert(arg)))
            elif op == "lookup":
                out.append(signature(await service.lookup(arg)))
            else:
                out.append(signature(await service.delete(arg)))
        content = service.cam.snapshot().content_hash()
    return out, content


def run_reference_tape(workload):
    """The golden model's view of the same tape (lookup answers only
    -- the reference has no service statuses or update stats)."""
    gold = ReferenceCam(64)
    out = []
    for op, arg in workload:
        if op == "insert":
            gold.update([binary_entry(v, WIDTH) for v in arg])
            out.append(None)
        elif op == "lookup":
            result = gold.search(arg)
            out.append((result.hit, result.address, result.match_vector))
        else:
            result = gold.delete(arg)
            out.append((result.hit, result.address, result.match_vector))
    return out


@given(workload=ops)
@common_settings
def test_network_path_bit_identical_to_in_process(workload):
    workload = bound_workload(workload)
    if not workload:
        return
    net, net_hash, _ = asyncio.run(run_network_tape(workload))
    local, local_hash = asyncio.run(run_inprocess_tape(workload))
    assert net == local, "network and in-process responses diverge"
    assert net_hash == local_hash, "final CAM contents diverge"
    gold = run_reference_tape(workload)
    for net_sig, gold_sig in zip(net, gold):
        if gold_sig is None:
            continue
        assert net_sig[1] == "ok"
        assert net_sig[2:] == gold_sig, \
            "network answer diverges from the reference model"


@given(workload=ops, data=st.data())
@common_settings
def test_network_path_survives_connection_kill(workload, data):
    """A mid-tape connection kill must change *nothing observable*:
    bit-identical responses, zero lost or duplicated updates."""
    workload = bound_workload(workload)
    if not workload:
        return
    kill_at = data.draw(
        st.integers(min_value=0, max_value=len(workload) - 1)
    )
    net, net_hash, server = asyncio.run(
        run_network_tape(workload, kill_at=kill_at)
    )
    local, local_hash = asyncio.run(run_inprocess_tape(workload))
    assert net == local, \
        f"responses diverge after a kill before op {kill_at}"
    assert net_hash == local_hash, \
        "a connection kill lost or duplicated an update"
    assert server.stats.decode_errors == 0


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
