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
from repro.net import CamClient, CamServer
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
