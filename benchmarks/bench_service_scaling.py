"""Shard scaling of the sharded CAM on the Table IX probe workload.

The workload is the adjacency-intersection stream behind Table IX:
hub adjacency sets of a power-law graph are stored in the CAM, then
the probe sides of sampled edges stream through as membership
lookups (each hit is one intersection contribution, exactly what the
triangle-counting pipeline asks the CAM per edge).

Scaling model: each shard keeps the *same* per-shard configuration
(the hardware unit is fixed; sharding adds units side by side).  The
hash policy pins every key to one shard, so a stream of K probes
splits into ~K/N per-shard streams executed in parallel banks; the
service-level cost is the *maximum* shard cycle count.  Doubling the
shards should therefore roughly halve the simulated cycles, and the
archived artefact asserts >= 3x throughput at 4 shards vs 1.

A second, informational section drives the same shard counts through
the async :class:`CamService` front door (admission -> micro-batching
-> merge) to show the full service path stays correct under the
scaling run; wall-clock there is host-noise-bound and not asserted.

A third section measures the replication overhead of R replicas per
shard: writes fan out to every replica (total write work amplifies by
exactly R), while reads are served by the preferred replica only, so
the service-level read cycle count is *unchanged* -- replication buys
failover at write cost, never read cost.  Asserted: write
amplification <= R x 1.05 and identical read cycles at R = 2.
"""

import pytest

from conftest import run_once

from repro.core import unit_for_entries
from repro.service import (
    DEMO_MIX,
    CamService,
    ShardedCam,
    TrafficSpec,
    demo_cam,
    drive,
)
from repro.service.workload import table09_probe_stream

SHARD_COUNTS = (1, 2, 4)
PROBE_BATCH = 512


def shard_config():
    """The fixed per-shard hardware unit (1024 entries, 64-cell blocks)."""
    return unit_for_entries(1024, block_size=64, data_width=32,
                            bus_width=512)


def table09_probe_workload():
    """Stored hub adjacency + probe stream from the Table IX graph
    (the shared stream also used by ``bench_net_throughput`` and the
    traffic driver, so every layer is measured on the same input)."""
    capacity = shard_config().num_blocks * 64
    return table09_probe_stream(capacity, seed=3)


def run_stream(shards: int, stored, probes) -> dict:
    cam = ShardedCam(shard_config(), shards=shards, policy="hash",
                     engine="batch")
    cam.update(stored)
    hits = 0
    for start in range(0, len(probes), PROBE_BATCH):
        batch = probes[start:start + PROBE_BATCH]
        hits += sum(r.hit for r in cam.search(batch))
    cycles = cam.cycle
    return {
        "shards": shards,
        "cycles": cycles,
        "hits": hits,
        "keys_per_cycle": len(probes) / cycles,
    }


def test_shard_scaling_on_table09_probes(benchmark, record_text):
    stored, probes = table09_probe_workload()

    results = {}
    for shards in SHARD_COUNTS[:-1]:
        results[shards] = run_stream(shards, stored, probes)
    results[SHARD_COUNTS[-1]] = run_once(
        benchmark, lambda: run_stream(SHARD_COUNTS[-1], stored, probes)
    )

    base = results[1]
    # identical answers at every shard count
    assert len({r["hits"] for r in results.values()}) == 1

    lines = [
        "sharded CAM scaling -- Table IX adjacency-probe stream",
        f"({len(stored)} stored hub-neighbor words, {len(probes)} probes, "
        "hash policy, constant per-shard unit: 1024 entries x 32 bit)",
        "",
        f"{'shards':>6s} {'sim cycles':>11s} {'keys/cycle':>11s} "
        f"{'speedup':>8s}",
    ]
    for shards in SHARD_COUNTS:
        row = results[shards]
        speedup = base["cycles"] / row["cycles"]
        lines.append(
            f"{shards:6d} {row['cycles']:11d} "
            f"{row['keys_per_cycle']:11.3f} {speedup:8.2f}"
        )
    record_text("service_shard_scaling", "\n".join(lines))

    speedup_at_4 = base["cycles"] / results[4]["cycles"]
    assert speedup_at_4 >= 3.0, (
        f"4 shards only {speedup_at_4:.2f}x over 1 shard"
    )


REPLICA_COUNTS = (1, 2)
REPLICA_SHARDS = 4


def run_replicated_stream(replicas: int, stored, probes) -> dict:
    cam = ShardedCam(shard_config(), shards=REPLICA_SHARDS, policy="hash",
                     engine="batch", replicas=replicas)

    def total_work() -> int:
        """Simulated cycles summed over every physical unit (all
        replicas of all shards) -- the hardware-work view, as opposed
        to ``cam.cycle`` (the parallel-banks latency view)."""
        work = 0
        for session in cam.sessions:
            members = getattr(session, "replicas", None) or (session,)
            work += sum(member.cycle for member in members)
        return work

    cam.update(stored)
    write_work = total_work()
    write_latency = cam.cycle
    hits = 0
    for start in range(0, len(probes), PROBE_BATCH):
        batch = probes[start:start + PROBE_BATCH]
        hits += sum(r.hit for r in cam.search(batch))
    return {
        "replicas": replicas,
        "hits": hits,
        "write_work": write_work,
        "write_latency": write_latency,
        "read_cycles": cam.cycle - write_latency,
    }


def test_replication_overhead_on_table09_probes(benchmark, record_text):
    stored, probes = table09_probe_workload()

    results = {}
    for replicas in REPLICA_COUNTS[:-1]:
        results[replicas] = run_replicated_stream(replicas, stored, probes)
    results[REPLICA_COUNTS[-1]] = run_once(
        benchmark,
        lambda: run_replicated_stream(REPLICA_COUNTS[-1], stored, probes),
    )

    base = results[1]
    # replication is invisible to results
    assert len({r["hits"] for r in results.values()}) == 1

    lines = [
        "replication overhead -- Table IX adjacency-probe stream",
        f"({len(stored)} stored words, {len(probes)} probes, "
        f"{REPLICA_SHARDS} shards, hash policy, R replicas per shard)",
        "",
        f"{'R':>3s} {'write work':>11s} {'write amp':>10s} "
        f"{'read cycles':>12s} {'read cost':>10s}",
    ]
    for replicas in REPLICA_COUNTS:
        row = results[replicas]
        amplification = row["write_work"] / base["write_work"]
        read_ratio = row["read_cycles"] / base["read_cycles"]
        lines.append(
            f"{replicas:3d} {row['write_work']:11d} {amplification:9.2f}x "
            f"{row['read_cycles']:12d} {read_ratio:9.2f}x"
        )
    record_text("service_replication_overhead", "\n".join(lines))

    for replicas in REPLICA_COUNTS:
        row = results[replicas]
        amplification = row["write_work"] / base["write_work"]
        # fan-out writes cost exactly R units of work (allow 5% slack
        # for the divergence-beat bookkeeping)
        assert amplification <= replicas * 1.05, (
            f"R={replicas}: write amplification {amplification:.3f} "
            f"exceeds {replicas}x"
        )
        # preferred-replica reads: service-level read latency unchanged
        assert row["read_cycles"] == base["read_cycles"], (
            f"R={replicas}: read cycles {row['read_cycles']} != "
            f"baseline {base['read_cycles']}"
        )


@pytest.mark.parametrize("shards", [1, 4])
def test_service_front_door_serves_scaled_cam(benchmark, shards):
    """The async service path stays healthy at both ends of the sweep."""
    import asyncio

    async def scenario():
        cam = demo_cam(entries_per_shard=512, shards=shards,
                       block_size=64)
        async with CamService(cam, max_batch=64,
                              request_timeout_s=10.0) as service:
            return await drive(service, TrafficSpec(
                requests=400, concurrency=8, seed=5, **DEMO_MIX))

    report = run_once(benchmark, lambda: asyncio.run(scenario()))
    assert report.ok == report.requests == 400
    assert report.timeouts == report.shard_failures == 0
    assert report.summary["service"]["mean_batch_occupancy"] >= 1.0
