"""Pipelined vs naive network client on the Table IX probe stream.

The wire protocol multiplexes requests by id, so a client can keep
hundreds of lookups in flight over one TCP connection. This benchmark
quantifies what that buys: the same adjacency-probe stream (the
workload behind Table IX and ``bench_service_scaling``) is driven
through

- the **naive** client (``pipelined=False``): one request per round
  trip, the classic stop-and-wait RPC pattern, and
- the **pipelined** client: a window of concurrent in-flight lookups
  over the same single connection.

Both legs are :func:`repro.service.drive` runs (closed loop, one
worker for the naive client, ``WINDOW`` for the pipelined one) against
the same in-process loopback server wrapping the same sharded CAM, so
the only variable is wire-level concurrency. The
archived artefact asserts the pipelined client sustains >= 5x the
naive client's request rate (the ISSUE acceptance bar); loopback RTT
is microseconds, so the real-network gap would be far larger.
"""

import asyncio

import pytest

from conftest import run_once

from repro.core import unit_for_entries
from repro.net import CamClient, CamServer
from repro.service import CamService, ShardedCam, TrafficSpec, drive
from repro.service.workload import table09_probe_stream

SHARDS = 2
ENTRIES_PER_SHARD = 1024
#: Lookups per measured leg (the naive leg pays a full RTT per probe).
#: Both legs walk the first NAIVE_PROBES keys of the stream, the
#: pipelined leg PIPELINED_PROBES // NAIVE_PROBES times over.
NAIVE_PROBES = 400
PIPELINED_PROBES = 4000
#: In-flight window for the pipelined leg.
WINDOW = 128
#: The acceptance bar: pipelining must buy at least this much.
MIN_SPEEDUP = 5.0


def make_cam():
    config = unit_for_entries(ENTRIES_PER_SHARD, block_size=64,
                              data_width=32, bus_width=512)
    return ShardedCam(config, shards=SHARDS, policy="hash", engine="batch")


async def measure():
    """Seed one server, then time both client modes against it."""
    cam = make_cam()
    # A near-zero batch window keeps per-request latency honest for the
    # naive (one-at-a-time) leg; the pipelined leg coalesces anyway.
    service = CamService(cam, max_delay_s=0.0002, max_batch=WINDOW)
    await service.start()
    server = CamServer(service, port=0)
    await server.start()
    try:
        _, probes = table09_probe_stream(cam.capacity, seed=3)
        probes = probes[:NAIVE_PROBES]

        async def leg(requests, concurrency, pipelined):
            async with CamClient(*server.address,
                                 pipelined=pipelined) as client:
                return await drive(client, TrafficSpec(
                    requests=requests, concurrency=concurrency, seed=3),
                    probes=probes)

        # The first leg also stores the seed set (outside its timing).
        naive = await leg(NAIVE_PROBES, 1, pipelined=False)
        fast = await leg(PIPELINED_PROBES, WINDOW, pipelined=True)

        # same answers on the shared keys, no failures, no decode trouble
        assert naive.ok == NAIVE_PROBES and fast.ok == PIPELINED_PROBES
        assert fast.hits == naive.hits * (PIPELINED_PROBES // NAIVE_PROBES)
        assert server.stats.decode_errors == 0
        return {
            "stored": naive.stored_words,
            "naive_s": naive.wall_s,
            "naive_rps": naive.achieved_rps,
            "pipelined_s": fast.wall_s,
            "pipelined_rps": fast.achieved_rps,
            "speedup": fast.achieved_rps / naive.achieved_rps,
            "hit_rate": fast.hits / fast.keys_probed,
        }
    finally:
        await server.stop()
        await service.stop()


@pytest.mark.slow
def test_pipelined_client_beats_naive_by_5x(benchmark, record_text):
    result = run_once(benchmark, lambda: asyncio.run(measure()))

    assert result["speedup"] >= MIN_SPEEDUP, (
        f"pipelined client achieved only {result['speedup']:.1f}x the "
        f"naive client ({result['pipelined_rps']:,.0f} vs "
        f"{result['naive_rps']:,.0f} req/s); the wire pipeline is "
        "supposed to hide the round trip"
    )

    lines = [
        "network client throughput -- Table IX adjacency-probe stream",
        f"(loopback, {SHARDS} shards x {ENTRIES_PER_SHARD} entries, "
        f"{result['stored']} stored words, one TCP connection each)",
        "",
        f"{'client':>10s} {'probes':>7s} {'wall s':>8s} "
        f"{'req/s':>10s}",
        f"{'naive':>10s} {NAIVE_PROBES:>7d} {result['naive_s']:>8.3f} "
        f"{result['naive_rps']:>10,.0f}",
        f"{'pipelined':>10s} {PIPELINED_PROBES:>7d} "
        f"{result['pipelined_s']:>8.3f} "
        f"{result['pipelined_rps']:>10,.0f}",
        "",
        f"speedup: {result['speedup']:.1f}x "
        f"(window {WINDOW}, bar >= {MIN_SPEEDUP:.0f}x)   "
        f"hit rate: {result['hit_rate']:.3f}",
    ]
    record_text("net_throughput", "\n".join(lines))
