"""CamService: micro-batching, admission, timeouts, degradation.

No pytest-asyncio in the toolchain: every scenario is a coroutine run
to completion with ``asyncio.run`` inside a plain sync test.
"""

import asyncio

import pytest

from repro.core import Encoding, ReferenceCam, binary_entry, unit_for_entries
from repro.core.batch import open_session
from repro.errors import ConfigError, ServiceError
from repro.net import CamClient, CamServer
from repro.service import (
    DEMO_MIX,
    CamService,
    FaultyBackend,
    ShardedCam,
    TrafficSpec,
    demo_cam,
    drive,
)
from repro.service.workload import latency_percentile

WIDTH = 16


def make_cam(shards=4, policy="hash", entries=32):
    config = unit_for_entries(entries, block_size=16, data_width=WIDTH,
                              bus_width=128)
    return ShardedCam(config, shards=shards, policy=policy, engine="batch")


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# configuration and lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"max_batch": 0},
    {"max_delay_s": -1},
    {"request_timeout_s": 0},
])
def test_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        CamService(make_cam(shards=1), **kwargs)


def test_requests_require_running_service():
    service = CamService(make_cam(shards=1))

    async def scenario():
        with pytest.raises(ServiceError):
            await service.lookup(1)

    run(scenario())


def test_double_start_rejected():
    async def scenario():
        async with CamService(make_cam(shards=1)) as service:
            with pytest.raises(ServiceError):
                await service.start()

    run(scenario())


def test_stop_drains_in_flight_requests():
    async def scenario():
        service = CamService(make_cam(shards=2), max_delay_s=0.05,
                             max_batch=64)
        await service.start()
        inserted = asyncio.ensure_future(service.insert([1, 2, 3, 4]))
        await asyncio.sleep(0)  # admitted, probably not yet flushed
        await service.stop()
        response = await inserted
        assert response.ok and response.stats.words == 4

    run(scenario())


# ----------------------------------------------------------------------
# request semantics
# ----------------------------------------------------------------------
def test_basic_lookup_insert_delete_cycle():
    async def scenario():
        async with CamService(make_cam()) as service:
            miss = await service.lookup(42)
            assert miss.ok and not miss.result.hit
            ins = await service.insert([42, 7, 42])
            assert ins.ok and ins.stats.words == 3
            assert ins.shards  # routed somewhere real
            hit = await service.lookup(42)
            assert hit.ok and hit.result.hit and hit.result.address == 0
            dele = await service.delete(42)
            assert dele.ok and dele.result.hit
            assert not (await service.lookup(42)).result.hit
            assert (await service.lookup(7)).result.hit

    run(scenario())


def test_concurrent_lookups_are_batched():
    async def scenario():
        cam = make_cam(shards=2)
        async with CamService(cam, max_batch=64, max_delay_s=0.02) as svc:
            await svc.insert(list(range(32)))
            responses = await asyncio.gather(
                *[svc.lookup(k) for k in range(32)]
            )
            assert all(r.ok and r.result.hit for r in responses)
        # far fewer flushes than requests proves coalescing happened
        assert svc.stats.dispatches < svc.stats.dispatched_requests
        assert svc.stats.mean_batch_occupancy > 1.0

    run(scenario())


class CountingBackend:
    """Session proxy that records how many keys each search carries."""

    def __init__(self, session, calls):
        self._session = session
        self._calls = calls

    def search(self, keys, groups=None):
        self._calls.append(len(keys))
        return self._session.search(keys, groups=groups)

    def __getattr__(self, name):
        return getattr(self._session, name)


def test_max_batch_caps_every_shard_call():
    calls = []
    config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                              bus_width=128)

    def factory(index, replica, cfg):
        session = open_session(cfg, engine="batch",
                               name=f"counted.shard{index}")
        return CountingBackend(session, calls)

    async def scenario():
        cam = ShardedCam(config, shards=2, session_factory=factory)
        async with CamService(cam, max_batch=4, max_delay_s=0.2,
                              request_timeout_s=5.0) as svc:
            await svc.insert(list(range(32)))
            responses = await asyncio.gather(
                *[svc.lookup(k) for k in range(32)]
            )
        assert all(r.ok and r.result.hit for r in responses)

    run(scenario())
    assert sum(calls) == 32
    assert max(calls) == 4  # coalesced up to, never past, the cap


def test_service_runs_one_dispatcher_task():
    async def scenario():
        before = len(asyncio.all_tasks())
        async with CamService(make_cam(shards=4)):
            plain = len(asyncio.all_tasks()) - before
        async with CamService(make_cam(shards=4), auto_repair=True):
            repairing = len(asyncio.all_tasks()) - before
        return plain, repairing

    assert run(scenario()) == (1, 2)


def test_a_frames_keys_are_admitted_without_a_task_each():
    """``lookup_many`` and ``delete_many`` admit one request per key on
    call and gather the futures: the loop's task count grows by the
    caller's own task, not by one per key."""
    stored = [3, 9, 27, 40, 41, 9]
    gold = ReferenceCam(32)
    gold.update([binary_entry(v, WIDTH) for v in stored])

    async def grown_by(call):
        before = len(asyncio.all_tasks())
        pending = asyncio.ensure_future(call)
        await asyncio.sleep(0)  # the call has admitted every key
        grown = len(asyncio.all_tasks()) - before
        return grown, await pending

    async def scenario():
        async with CamService(make_cam(shards=4)) as service:
            await service.insert(stored)
            grown, found = await grown_by(service.lookup_many(range(64)))
            assert grown <= 2
            assert [(r.status, r.result) for r in found] \
                == [("ok", gold.search(k)) for k in range(64)]
            keys = [9, 1, 40, 9, 2, 3, 27, 5]
            grown, deleted = await grown_by(service.delete_many(keys))
            assert grown <= 2
            assert [(r.status, r.result) for r in deleted] \
                == [("ok", gold.delete(k)) for k in keys]

    run(scenario())


def test_insert_is_split_and_merged_across_shards():
    async def scenario():
        cam = make_cam(shards=4)
        async with CamService(cam) as service:
            response = await service.insert(list(range(16)))
            assert response.ok
            assert response.stats.words == 16
            assert len(response.shards) > 1  # hash spread the batch

    run(scenario())


def test_broadcast_policy_merges_cross_shard_tie():
    async def scenario():
        cam = make_cam(shards=4, policy="round_robin")
        async with CamService(cam) as service:
            await service.insert([9, 1, 9, 2, 9])  # 9 on shards 0, 2, 0
            response = await service.lookup(9)
            assert response.ok
            assert response.result.address == 0  # globally first copy
            assert bin(response.result.match_vector).count("1") == 3
            assert len(response.shards) == 4  # every shard was asked

    run(scenario())


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
def test_concurrent_lookups_are_all_admitted_on_call():
    """No caller waits for room: every call is queued before the first
    await, and every one answers."""
    async def scenario():
        service = CamService(make_cam(shards=1), max_delay_s=0.0)
        async with service:
            calls = [service.lookup(k) for k in range(40)]
            assert service.depth() == 40
            responses = await asyncio.gather(*calls)
            assert all(r.ok for r in responses)

    run(scenario())


def test_a_full_queue_admits_callers_in_call_order():
    """Concurrent lookup frames and inserts fill the one admission
    queue; none overtakes an earlier caller, so the answers and the
    inserts' global addresses are those of the calls made in order."""
    words = [[10 + i, 20 + i, 30 + i] for i in range(4)]
    frames = [[10, 20, 11, 21, 12, 22, 13, 23, 99] for _ in range(5)]
    gold = ReferenceCam(32)
    expected = []
    for index, keys in enumerate(frames):
        expected.append([gold.search(k) for k in keys])
        if index < len(words):
            gold.update([binary_entry(v, WIDTH) for v in words[index]])

    async def scenario():
        service = CamService(make_cam(shards=2), max_delay_s=0.001,
                             request_timeout_s=5.0)
        async with service:
            calls = []
            for index, keys in enumerate(frames):
                calls.append(asyncio.ensure_future(
                    service.lookup_many(keys)))
                if index < len(words):
                    calls.append(asyncio.ensure_future(
                        service.insert(words[index])))
            answers = await asyncio.gather(*calls)
            lookups = answers[::2]
            assert [[(r.status, r.result) for r in frame]
                    for frame in lookups] \
                == [[("ok", r) for r in frame] for frame in expected]
            assert all(r.ok for r in answers[1::2])
            placed = await service.lookup_many(
                [w for batch in words for w in batch])
            assert [r.result.address for r in placed] == list(range(12))

    run(scenario())


def test_an_insert_is_admitted_before_a_lookup_called_after_it():
    """Every method admits on call: a lookup gathered after an insert
    (or a delete) of its key sees it, as the calls made in order do."""
    async def scenario():
        async with CamService(make_cam(shards=2),
                              max_delay_s=0.001) as service:
            inserted, found = await asyncio.gather(service.insert([7]),
                                                   service.lookup(7))
            assert inserted.ok and found.ok and found.result.hit
            [deleted], gone = await asyncio.gather(
                service.delete_many([7]), service.lookup(7))
            assert deleted.result.hit and not gone.result.hit
            many = service.lookup_many([7])
            assert service.depth() == 1  # admitted before any await
            assert not (await many)[0].result.hit

    run(scenario())


def test_a_cancelled_request_still_runs_and_leaves_drain_free():
    """An admitted request always runs: cancelling the caller's future
    only drops its answer, so a cancelled delete still deletes."""
    async def scenario():
        service = CamService(make_cam(shards=2), max_delay_s=0.001)
        async with service:
            await service.insert([7, 8])
            cancelled = service.delete_many([7, 8])
            assert service.depth() == 2
            cancelled.cancel()
            await asyncio.wait_for(service.drain(), 5)
            assert service.stats.admitted == service.stats.completed == 3
            assert not any(r.hit for r in service.cam.search([7, 8]))
        # A cancelled gather holds CancelledError but is not cancelled().
        with pytest.raises(asyncio.CancelledError):
            cancelled.result()

    run(scenario())


# ----------------------------------------------------------------------
# timeouts
# ----------------------------------------------------------------------
class SlowBackend:
    """Session proxy that blocks the loop long enough to expire peers."""

    def __init__(self, session, stall_s):
        self._session = session
        self._stall_s = stall_s

    def search(self, keys, groups=None):
        import time as _time

        _time.sleep(self._stall_s)
        return self._session.search(keys, groups=groups)

    def __getattr__(self, name):
        return getattr(self._session, name)


def test_request_timeout_resolves_as_miss():
    async def scenario():
        config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                                  bus_width=128)

        def factory(index, replica, cfg):
            session = open_session(cfg, engine="batch",
                                   name=f"slow.shard{index}")
            return SlowBackend(session, stall_s=0.08)

        cam = ShardedCam(config, shards=1, session_factory=factory)
        service = CamService(cam, request_timeout_s=0.05, max_delay_s=0.0,
                             max_batch=1)
        async with service:
            first = asyncio.ensure_future(service.lookup(1))
            second = asyncio.ensure_future(service.lookup(2))
            responses = await asyncio.gather(first, second)
        # the first stalls past the second's deadline; the second must
        # resolve as a timeout miss, not hang or error
        statuses = sorted(r.status for r in responses)
        assert "timeout" in statuses
        timed_out = next(r for r in responses if r.status == "timeout")
        assert timed_out.result is not None and not timed_out.result.hit
        assert service.stats.timeouts >= 1

    run(scenario())


class SlowUpdateBackend:
    """Session proxy whose update blocks the loop past a deadline."""

    def __init__(self, session, stall_s):
        self._session = session
        self._stall_s = stall_s

    def update(self, words, group=None):
        import time as _time

        _time.sleep(self._stall_s)
        return self._session.update(words, group=group)

    def __getattr__(self, name):
        return getattr(self._session, name)


def test_insert_runs_on_all_of_its_shards_or_none():
    config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                              bus_width=128)

    def factory(index, replica, cfg):
        session = open_session(cfg, engine="batch", name=f"shard{index}")
        return SlowUpdateBackend(session, 0.08) if index == 0 else session

    cam = ShardedCam(config, shards=2, policy="hash",
                     session_factory=factory)
    words = list(range(8))
    assert {cam.shards_for_key(w)[0] for w in words} == {0, 1}

    async def scenario():
        service = CamService(cam, request_timeout_s=0.05, max_delay_s=0.0,
                             max_batch=1)
        async with service:
            return await service.insert(words)

    response = run(scenario())
    # shard 0 stalls past the deadline; shard 1 must not then drop its
    # half of an insert that already ran on shard 0
    assert cam.occupancy in (0, len(words))
    assert (response.status == "ok") == (cam.occupancy == len(words))


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------
def faulty_cam(bad_shard=0, fail_after=0, shards=2, policy="hash"):
    config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                              bus_width=128)

    def factory(index, replica, cfg):
        session = open_session(cfg, engine="batch", name=f"f.shard{index}")
        if index == bad_shard:
            return FaultyBackend(session, fail_after)
        return session

    return ShardedCam(config, shards=shards, policy=policy,
                      session_factory=factory)


def test_poisoned_shard_degrades_to_miss_with_error():
    async def scenario():
        cam = faulty_cam(bad_shard=0, shards=2)
        async with CamService(cam) as service:
            saw_failure = saw_ok = False
            for key in range(32):
                response = await service.lookup(key)
                if response.status == "shard_failed":
                    saw_failure = True
                    assert response.result is not None
                    assert not response.result.hit
                    assert response.error
                else:
                    assert response.ok
                    saw_ok = True
            assert saw_failure, "no key routed to the poisoned shard"
            assert saw_ok, "healthy shard stopped serving"
            assert cam.poisoned_shards == (0,)
        assert service.stats.shard_failures >= 1

    run(scenario())


def test_broadcast_lookup_survives_one_poisoned_shard():
    async def scenario():
        cam = faulty_cam(bad_shard=1, shards=3, policy="round_robin")
        async with CamService(cam) as service:
            # striping sends index 1 to the bad shard; 10 and 12 survive
            response = await service.insert([10, 11, 12])
            assert response.status == "shard_failed"
            found = await service.lookup(10)
            # degraded but answered from the healthy shards
            assert found.result.hit
            assert found.status == "shard_failed"

    run(scenario())


def test_degraded_miss_carries_the_configured_encoding():
    """Regression: with every shard poisoned the degraded miss came back
    PRIORITY-encoded whatever encoding the CAM was configured with."""
    config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                              bus_width=128, encoding=Encoding.COUNT)

    def factory(index, replica, cfg):
        session = open_session(cfg, engine="batch", name=f"c.shard{index}")
        return FaultyBackend(session, fail_after=2)

    async def scenario():
        cam = ShardedCam(config, shards=2, policy="round_robin",
                         session_factory=factory)
        async with CamService(cam) as service:
            assert (await service.insert([7, 8])).ok  # one op per shard
            healthy = await service.lookup(7)  # second op per shard
            degraded = await service.lookup(7)  # both shards now fault
        return cam, healthy, degraded

    cam, healthy, degraded = run(scenario())
    assert cam.poisoned_shards == (0, 1)
    assert healthy.ok and healthy.result.hit
    assert healthy.result.encoding is Encoding.COUNT
    assert degraded.status == "shard_failed"
    assert not degraded.result.hit
    assert degraded.result.encoding is Encoding.COUNT


# ----------------------------------------------------------------------
# traffic driver (the serve-demo/loadgen/CI entry point)
# ----------------------------------------------------------------------
def test_workload_driver_reports_clean_run():
    async def scenario():
        cam = demo_cam(entries_per_shard=128, shards=4, block_size=32)
        async with CamService(cam, max_batch=32,
                              request_timeout_s=5.0) as service:
            report = await drive(service, TrafficSpec(
                requests=200, concurrency=4, seed=7, **DEMO_MIX))
            summary = service.stats_doc()
        assert report.requests == 200
        assert report.ok == 200
        assert report.timeouts == report.shard_failures == 0
        assert report.lookups + report.inserts + report.deletes == 200
        assert report.inserts > 0 and report.deletes > 0
        assert summary["cam"]["cycle"] > 0
        assert report.summary == summary
        assert len(report.latencies_s) == 200
        text = report.render()
        assert "requests" in text and "shards" in text

    run(scenario())


def test_workload_driver_with_poisoned_shard():
    async def scenario():
        cam = demo_cam(entries_per_shard=128, shards=4, block_size=32,
                       poison_shard=2, poison_after=3)
        async with CamService(cam, request_timeout_s=5.0) as service:
            report = await drive(service, TrafficSpec(
                requests=200, concurrency=2, seed=11, **DEMO_MIX))
            summary = service.stats_doc()
        assert summary["cam"]["poisoned_shards"] == [2]
        assert report.shard_failures > 0
        assert report.ok > 0  # healthy shards kept serving

    run(scenario())


def test_driver_refuses_kill_after_in_process():
    async def scenario():
        async with CamService(make_cam()) as service:
            await drive(service, TrafficSpec(requests=4, kill_after=1))

    with pytest.raises(ConfigError):
        run(scenario())


@pytest.mark.parametrize("wire", [False, True], ids=["service", "wire"])
@pytest.mark.parametrize("requests,concurrency", [(10, 3), (2, 8)])
def test_driver_issues_exactly_the_requested_operations(
        requests, concurrency, wire):
    spec = TrafficSpec(requests=requests, concurrency=concurrency,
                       seed=1, **DEMO_MIX)

    async def scenario():
        cam = demo_cam(entries_per_shard=64, shards=2, block_size=32)
        async with CamService(cam, max_delay_s=0.001) as service:
            if not wire:
                report = await drive(service, spec)
            else:
                async with CamServer(service, port=0) as server:
                    async with CamClient(*server.address) as client:
                        report = await drive(client, spec)
            return report, service.stats.admitted

    report, admitted = run(scenario())
    assert report.requests == report.ok == requests
    assert report.lookups + report.inserts + report.deletes == requests
    seed_inserts = -(-report.stored_words // 64)
    assert admitted == seed_inserts + report.keys_probed \
        + report.inserts + report.deletes


@pytest.mark.parametrize("latencies,q,expected", [
    ([1, 2], 0.5, 1),
    (list(range(1, 101)), 0.50, 50),
    (list(range(1, 101)), 0.99, 99),
    (list(range(1, 101)), 1.0, 100),
    ([3], 0.0, 3),
    ([], 0.5, 0.0),
])
def test_latency_percentile_is_nearest_rank(latencies, q, expected):
    assert latency_percentile(latencies, q) == expected
