#!/usr/bin/env python3
"""The sharded async CAM service: partitioning, batching, isolation.

One CAM unit has fixed capacity; ``repro.open_session(config,
shards=N)`` puts N identically-configured units side by side behind a
shard policy while preserving single-CAM semantics -- the priority
encoder's lowest-address-wins contract holds *across* shard
boundaries. :class:`repro.service.CamService` then fronts the shards
with an asyncio scheduler: one admission FIFO, per-shard
micro-batching, per-request deadlines, failed-shard isolation. Every
shard is a replica set of one or more sessions; a shard fails only
when no replica of it is healthy.

This example shows:

1. cross-shard priority ties resolving exactly like one big CAM;
2. concurrent lookups coalescing into micro-batches;
3. a single-replica shard blowing up mid-run (its set has no healthy
   replica left, so the shard fails) while the healthy shards keep
   serving;
4. two replicas per shard: a dead replica served around, then rebuilt
   live from its peer's snapshot by ``CamService.repair_shard``.

Run:  python examples/sharded_service.py
"""

import asyncio

import repro
from repro.core import ReferenceCam, binary_entry, unit_for_entries
from repro.service import CamService, FaultyBackend, ShardedCam

WIDTH = 16


def shard_config():
    """One shard: 64 entries of 16-bit keys (4 blocks x 16 cells)."""
    return unit_for_entries(64, block_size=16, data_width=WIDTH,
                            bus_width=128)


def global_priority_demo() -> None:
    print("1. global priority encoding across shards")
    cam = repro.open_session(shard_config(), engine="batch", shards=4,
                             policy="round_robin")
    reference = ReferenceCam(cam.capacity)
    words = [42, 7, 42, 9, 42]  # copies of 42 stripe over shards 0, 2, 0
    cam.update(words)
    reference.update([binary_entry(w, WIDTH) for w in words])
    ours, gold = cam.search_one(42), reference.search(42)
    print(f"   sharded : address={ours.address} "
          f"match_vector={ours.match_vector:#08b}")
    print(f"   one CAM : address={gold.address} "
          f"match_vector={gold.match_vector:#08b}")
    assert (ours.address, ours.match_vector) \
        == (gold.address, gold.match_vector)
    print("   -> the globally first-inserted copy wins, as in hardware\n")


async def batching_demo() -> None:
    print("2. concurrent lookups coalesce into micro-batches")
    cam = repro.open_session(shard_config(), engine="batch", shards=4)
    async with CamService(cam, max_batch=32, max_delay_s=0.005) as service:
        await service.insert(list(range(64)))
        responses = await asyncio.gather(
            *[service.lookup(key) for key in range(64)]
        )
    assert all(r.ok and r.result.hit for r in responses)
    stats = service.stats
    print(f"   {stats.dispatched_requests} requests in "
          f"{stats.dispatches} flushes "
          f"(mean occupancy {stats.mean_batch_occupancy:.1f})\n")


async def isolation_demo() -> None:
    print("3. per-shard failure isolation")

    def factory(shard, replica, cfg):
        session = repro.open_session(cfg, engine="batch",
                                     name=f"demo.shard{shard}")
        if shard == 1:
            return FaultyBackend(session, fail_after=4)
        return session

    cam = ShardedCam(shard_config(), shards=4, session_factory=factory)
    async with CamService(cam) as service:
        outcomes = {"ok": 0, "shard_failed": 0}
        for key in range(40):
            response = await service.lookup(key)
            outcomes[response.status] += 1
        print(f"   {outcomes['ok']} served, "
              f"{outcomes['shard_failed']} degraded to miss-with-error")
        print(f"   failed shards: {list(cam.poisoned_shards)} "
              f"(no healthy replica left; the others never noticed)")
    assert cam.poisoned_shards == (1,)
    assert outcomes["ok"] > 0


async def recovery_demo() -> None:
    print("4. replication: failover, then live recovery")

    faulty = {}

    def factory(shard, replica, cfg):
        session = repro.open_session(cfg, engine="batch",
                                     name=f"demo.shard{shard}.r{replica}")
        if shard == 0 and replica == 0:
            faulty[0] = FaultyBackend(session, fail_after=6)
            return faulty[0]
        return session

    cam = ShardedCam(shard_config(), shards=2, replicas=2,
                     session_factory=factory)
    async with CamService(cam) as service:
        await service.insert(list(range(24)))   # kills shard 0's replica 0
        hits = sum([(await service.lookup(k)).result.hit
                    for k in range(24)])
        print(f"   {hits}/24 keys still served (peer replica failed over)")
        print(f"   degraded shards: {list(cam.degraded_shards)} "
              f"(one replica fenced, none failed)")
        assert hits == 24 and cam.poisoned_shards == ()

        faulty[0].heal()                        # ops swap the node
        repaired = await service.repair_shard(cam.degraded_shards[0])
        assert repaired and cam.degraded_shards == ()
        print(f"   repair_shard -> rebuilt from peer snapshot, "
              f"{service.stats.repairs_completed} repair(s) completed")


def main() -> None:
    global_priority_demo()
    asyncio.run(batching_demo())
    asyncio.run(isolation_demo())
    asyncio.run(recovery_demo())


if __name__ == "__main__":
    main()
