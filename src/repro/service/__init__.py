"""repro.service: sharded CAM service layer with async micro-batching.

Two layers over the single-unit sessions of :mod:`repro.core`:

- :class:`ShardedCam` -- one logical CAM partitioned across N backend
  sessions by a pluggable :class:`ShardPolicy`, merging per-shard
  answers through a global address space so priority encoding is
  preserved across shard boundaries (result-identical to one big
  :class:`~repro.core.ReferenceCam`);
- :class:`CamService` -- an asyncio front door that admits
  lookup/insert/delete requests through a bounded queue, micro-batches
  them per shard, and isolates backend failures to the shard that
  raised them.

:func:`drive` runs traffic against either front door, a
:class:`CamService` or a :class:`~repro.net.client.CamClient`: the
Table IX probe stream plus an insert/delete share
(:class:`TrafficSpec`), summed up in a :class:`TrafficReport`.

Construct the sharded façade through :func:`repro.open_session` with
``shards > 1``; see ``docs/service.md`` for the full tour::

    import asyncio
    import repro
    from repro.core import unit_for_entries
    from repro.service import CamService

    cam = repro.open_session(unit_for_entries(512, block_size=64,
                                              data_width=32),
                             engine="batch", shards=4)

    async def main():
        async with CamService(cam, max_batch=32) as svc:
            await svc.insert([7, 42, 99])
            print((await svc.lookup(42)).result)

    asyncio.run(main())
"""

from __future__ import annotations

from repro.service.replica import ReplicaSet, ReplicaStats
from repro.service.scheduler import CamService, ServiceResponse, ServiceStats
from repro.service.sharded import ShardedCam, merge_results
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    CamSnapshot,
    SnapshotEntry,
)
from repro.service.sharding import (
    POLICIES,
    HashShardPolicy,
    RangeShardPolicy,
    RoundRobinShardPolicy,
    ShardPolicy,
    policy_for,
)
from repro.service.workload import (
    DEMO_MIX,
    FaultyBackend,
    TrafficReport,
    TrafficSpec,
    demo_cam,
    drive,
)

__all__ = [
    "DEMO_MIX",
    "POLICIES",
    "SNAPSHOT_VERSION",
    "CamService",
    "CamSnapshot",
    "FaultyBackend",
    "ReplicaSet",
    "ReplicaStats",
    "SnapshotEntry",
    "HashShardPolicy",
    "RangeShardPolicy",
    "RoundRobinShardPolicy",
    "ServiceResponse",
    "ServiceStats",
    "ShardPolicy",
    "ShardedCam",
    "TrafficReport",
    "TrafficSpec",
    "demo_cam",
    "drive",
    "merge_results",
    "policy_for",
]
