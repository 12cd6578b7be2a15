"""ReplicaSet: fan-out writes, failover reads, divergence fencing,
and live recovery (snapshot + bounded catch-up log).

The headline guarantees, proven property-style against the golden
:class:`ReferenceCam`:

- killing the preferred replica mid-workload causes **zero**
  miss-with-error -- every read is still bit-identical to the
  reference, served by the surviving peer;
- a replica rebuilt mid-workload (donor snapshot + catch-up log
  replay) serves bit-identical results once reinstated, even for
  writes that landed while it was down.
"""

from __future__ import annotations

import asyncio
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ReferenceCam, binary_entry, open_session, unit_for_entries
from repro.errors import (
    CapacityError,
    ReplicaExhaustedError,
    ServiceError,
    ShardFailedError,
    SimulationError,
)
from repro.service import replica as replica_module
from repro.service import (
    CamService,
    FaultyBackend,
    ReplicaSet,
    DEMO_MIX,
    ShardedCam,
    TrafficSpec,
    demo_cam,
    drive,
)

WIDTH = 12
KEYSPACE = 64

keys = st.integers(min_value=0, max_value=KEYSPACE - 1)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(keys, min_size=1, max_size=4)),
        st.tuples(st.just("lookup"), keys),
        st.tuples(st.just("delete"), keys),
    ),
    min_size=2,
    max_size=24,
)

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"
EXAMPLES = 30 if _DEEP else 10

common_settings = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_config():
    return unit_for_entries(32, block_size=16, data_width=WIDTH,
                            bus_width=64)


def session():
    return open_session(small_config(), "batch")


def replica_set(replicas=2, *, wrap=None):
    members = []
    for index in range(replicas):
        member = session()
        if wrap and index in wrap:
            member = wrap[index](member)
        members.append(member)
    return ReplicaSet(members)


def assert_same(ours, gold, context):
    assert (ours.hit, ours.address, ours.match_vector) \
        == (gold.hit, gold.address, gold.match_vector), context


# ----------------------------------------------------------------------
# fan-out writes keep replicas identical
# ----------------------------------------------------------------------
def test_writes_fan_out_to_every_replica():
    rset = replica_set(3)
    rset.update([1, 2, 3])
    rset.delete(2)
    hashes = {r.snapshot().content_hash() for r in rset.replicas}
    assert len(hashes) == 1
    assert rset.occupancy == 3  # fill pointer, holes included
    assert rset.engine_name == "replicated[3xbatch]"
    assert rset.failed_replicas == ()


def test_client_errors_do_not_fence_replicas():
    rset = replica_set(2)
    with pytest.raises(CapacityError):
        rset.update(list(range(KEYSPACE)))  # overflows every replica alike
    assert rset.failed_replicas == ()
    # deterministic partial landings keep the replicas identical
    assert len({r.snapshot().content_hash() for r in rset.replicas}) == 1


def test_write_exhaustion_when_no_replica_is_healthy():
    rset = replica_set(2, wrap={
        0: lambda s: FaultyBackend(s, fail_after=0),
        1: lambda s: FaultyBackend(s, fail_after=0),
    })
    with pytest.raises(ReplicaExhaustedError):
        rset.update([1])


# ----------------------------------------------------------------------
# failover reads: zero miss-with-error
# ----------------------------------------------------------------------
@given(workload=ops, fail_after=st.integers(min_value=0, max_value=12))
@common_settings
def test_killed_preferred_replica_causes_zero_miss_with_error(
        workload, fail_after):
    """Every read is bit-identical to the reference even while the
    preferred replica dies mid-stream: the peer serves seamlessly."""
    rset = replica_set(2, wrap={
        0: lambda s: FaultyBackend(s, fail_after=fail_after)})
    reference = ReferenceCam(rset.capacity)
    assert rset.preferred == 0
    live = 0
    for op, payload in workload:
        if op == "insert":
            if live + len(payload) > rset.capacity:
                continue
            rset.update(payload)
            reference.update([binary_entry(v, WIDTH) for v in payload])
            live += len(payload)
        elif op == "delete":
            rset.delete(payload)
            reference.delete(payload)
        else:
            assert_same(rset.search_one(payload), reference.search(payload),
                        (op, payload))
    for key in range(KEYSPACE):
        assert_same(rset.search_one(key), reference.search(key), key)
    if rset.failed_replicas:
        assert rset.stats.failures >= 1


def test_failover_increments_metrics_and_keeps_serving():
    rset = replica_set(2, wrap={
        0: lambda s: FaultyBackend(s, fail_after=1)})
    rset.update([7])          # op 1: lands on both
    result = rset.search_one(7)   # faults replica 0, served by replica 1
    assert result.hit
    assert rset.failed_replicas == (0,)
    assert rset.stats.failovers == 1
    assert not rset.replica_healthy(0) and rset.replica_healthy(1)


# ----------------------------------------------------------------------
# live recovery: donor snapshot + catch-up log
# ----------------------------------------------------------------------
@given(workload=ops, fail_after=st.integers(min_value=1, max_value=8))
@common_settings
def test_replica_rebuilt_mid_workload_is_bit_identical(workload, fail_after):
    """The tentpole guarantee: a replica that died, missed writes, and
    was rebuilt from a peer's snapshot plus the catch-up log serves
    bit-identical results to the golden reference."""
    faulty = {}

    def wrap(s):
        backend = FaultyBackend(s, fail_after=fail_after)
        faulty[0] = backend
        return backend

    rset = replica_set(2, wrap={0: wrap})
    reference = ReferenceCam(rset.capacity)
    live = 0
    mid = max(1, len(workload) // 2)
    rebuilding = False
    for step, (op, payload) in enumerate(workload):
        if step == mid and rset.failed_replicas:
            # begin recovery mid-stream; later writes go to the log
            faulty[0].heal()  # fault cleared (node replaced)
            rset.begin_rebuild(0)
            rebuilding = True
        if op == "insert":
            if live + len(payload) > rset.capacity:
                continue
            rset.update(payload)
            reference.update([binary_entry(v, WIDTH) for v in payload])
            live += len(payload)
        elif op == "delete":
            rset.delete(payload)
            reference.delete(payload)
        else:
            assert_same(rset.search_one(payload), reference.search(payload),
                        (op, payload))
    if rset.failed_replicas:
        faulty[0].heal()
        if not rebuilding:
            rset.begin_rebuild(0)
        rset.finish_rebuild(0)
    assert rset.failed_replicas == ()
    # force every future read through the recovered replica
    rset.set_preferred(0)
    for key in range(KEYSPACE):
        assert_same(rset.search_one(key), reference.search(key), key)
    # and it is content-identical to its peer
    assert len({r.snapshot().content_hash() for r in rset.replicas}) == 1


def test_catchup_log_overflow_fails_the_rebuild(monkeypatch):
    monkeypatch.setattr(replica_module, "CATCHUP_LIMIT", 2)
    rset = replica_set(2, wrap={
        0: lambda s: FaultyBackend(s, fail_after=1)})
    rset.update([1])
    rset.search_one(1)  # fence replica 0
    rset.replicas[0].heal()
    rset.begin_rebuild(0)
    for value in (2, 3, 4):  # three logged writes > CATCHUP_LIMIT
        rset.update([value])
    with pytest.raises(ServiceError):
        rset.finish_rebuild(0)
    assert rset.stats.repairs_failed == 1
    assert 0 in rset.failed_replicas
    # a fresh rebuild (new snapshot, short log) succeeds
    rset.begin_rebuild(0)
    assert rset.finish_rebuild(0) == 0
    assert rset.failed_replicas == ()
    rset.set_preferred(0)
    assert rset.search_one(4).hit


def test_divergent_replica_is_fenced_by_hash_beat(monkeypatch):
    monkeypatch.setattr(replica_module, "BEAT_EVERY", 4)
    rset = replica_set(2, wrap={
        1: lambda s: FaultyBackend(s, fail_after=2, mode="diverge")})
    for value in range(6):  # beat fires after 4 writes
        rset.update([value])
    assert rset.failed_replicas == (1,)
    assert rset.stats.divergences == 1
    # the surviving majority (the preferred replica) kept every write
    assert all(rset.search_one(v).hit for v in range(6))


def test_crashed_replica_recovers_after_its_window():
    rset = replica_set(2, wrap={
        0: lambda s: FaultyBackend(s, fail_after=2, mode="crash",
                                   fail_ops=3)})
    for value in range(8):
        rset.update([value])
    assert 0 in rset.failed_replicas
    # the crash window has passed: rebuild brings it back for good
    rset.begin_rebuild(0)
    rset.finish_rebuild(0)
    assert rset.failed_replicas == ()
    rset.set_preferred(0)
    assert all(rset.search_one(v).hit for v in range(8))


# ----------------------------------------------------------------------
# as a shard backend behind the service
# ----------------------------------------------------------------------
def test_sharded_cam_with_replicas_reports_degraded_shards():
    cam = demo_cam(entries_per_shard=32, shards=2, replicas=2,
                   poison_shard=1, poison_after=3, fault_mode="wedge")
    assert cam.num_replicas == 2
    assert cam.engine_name == "sharded[2x2xbatch]"
    for value in range(20):
        cam.update([value])
    assert cam.poisoned_shards == ()  # peers absorbed the faults
    assert 1 in cam.degraded_shards


def test_service_repair_shard_reinstates_replicas():
    cam = demo_cam(entries_per_shard=32, shards=2, replicas=2,
                   poison_shard=0, poison_after=3, fault_mode="crash")

    async def run():
        async with CamService(cam, max_delay_s=0.001) as service:
            for value in range(40):
                await service.insert([value])
            degraded = cam.degraded_shards
            assert degraded, "fault never triggered"
            repaired = await service.repair_shard(degraded[0])
            return repaired, service.stats

    repaired, stats = asyncio.run(run())
    assert repaired
    assert stats.repairs_completed >= 1
    assert cam.degraded_shards == ()


@pytest.mark.parametrize("replicas", [1, 2])
def test_failed_shard_has_no_donor_and_reset_heals_it(replicas):
    """With every replica of a shard fenced there is no donor to
    rebuild from: repair_shard declines without counting a failed
    repair, and a reset heals the shard so that it serves again."""
    faulty = []

    def factory(shard, replica, cfg):
        member = open_session(cfg, "batch")
        if shard == 1:
            member = FaultyBackend(member, fail_after=0)
            faulty.append(member)
        return member

    cam = ShardedCam(small_config(), shards=2, replicas=replicas,
                     session_factory=factory)
    with pytest.raises(ShardFailedError):
        cam.update_shard(1, [5])
    assert cam.poisoned_shards == (1,)

    async def run():
        async with CamService(cam) as service:
            return await service.repair_shard(1), service.stats

    repaired, stats = asyncio.run(run())
    assert not repaired
    assert stats.repairs_failed == 0
    assert cam.poisoned_shards == (1,)

    for member in faulty:
        member.heal()
    cam.reset()
    assert cam.degraded_shards == ()
    cam.update_shard(1, [5])
    assert cam.search_shard(1, [5])[0].hit


def test_auto_repair_workload_has_zero_failures():
    cam = demo_cam(entries_per_shard=64, shards=4, replicas=2,
                   poison_shard=1)  # default fault mode: crash

    async def run():
        async with CamService(cam, max_delay_s=0.001,
                              request_timeout_s=5.0,
                              auto_repair=True) as service:
            report = await drive(service, TrafficSpec(
                requests=300, concurrency=4, seed=7, **DEMO_MIX))
            return report, service.stats_doc()

    report, summary = asyncio.run(run())
    assert report.ok == 300
    assert report.shard_failures == 0
    assert summary["cam"]["replicas"] == 2
    assert summary["service"]["repairs_completed"] >= 1


def test_replica_set_rejects_mismatched_members():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        ReplicaSet([])
    mismatched = [
        session(),
        open_session(unit_for_entries(64, block_size=16, data_width=WIDTH,
                                      bus_width=64), "batch"),
    ]
    with pytest.raises(ConfigError):
        ReplicaSet(mismatched)
