"""Property-based equivalence: sharded service vs the golden reference.

Randomized mixed insert/lookup/delete workloads run against a
:class:`ShardedCam` (every policy) and, through the async
:class:`CamService` front door under deliberately tight admission
settings (queue_depth smaller than the client count, so the
backpressure path is exercised on every example), while a single
:class:`ReferenceCam` plays the same tape. Hit/address/match-vector
answers must be bit-identical -- including cross-shard priority ties
from duplicate keys striped over shards by the round-robin policy.
"""

import asyncio
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ReferenceCam, binary_entry, unit_for_entries
from repro.service import CamService, ShardedCam

WIDTH = 12
#: Tiny key space so duplicates (priority ties) are common.
keys = st.integers(min_value=0, max_value=63)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.lists(keys, min_size=1, max_size=6)),
        st.tuples(st.just("lookup"), keys),
        st.tuples(st.just("delete"), keys),
    ),
    min_size=1,
    max_size=30,
)

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"
EXAMPLES = 40 if _DEEP else 12

common_settings = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def shard_config():
    """One shard: 32 entries (2 blocks of 16), 12-bit keys."""
    return unit_for_entries(32, block_size=16, data_width=WIDTH,
                            bus_width=64)


def insert_budget(cam: ShardedCam) -> int:
    """Bound live words so no workload can overflow any single shard
    (hash/range skew could otherwise fill one shard while the
    aggregate still has room)."""
    if cam.policy.broadcast_lookups:
        return cam.capacity  # striping is perfectly balanced
    return cam.sessions[0].capacity


def assert_same(ours, gold, context):
    assert (ours.hit, ours.address, ours.match_vector) \
        == (gold.hit, gold.address, gold.match_vector), context


@pytest.mark.parametrize("policy", ["hash", "range", "round_robin"])
@given(workload=ops)
@common_settings
def test_sharded_cam_matches_reference(policy, workload):
    cam = ShardedCam(shard_config(), shards=4, policy=policy,
                     engine="batch")
    reference = ReferenceCam(cam.capacity)
    budget = insert_budget(cam)
    for op, payload in workload:
        if op == "insert":
            if reference.occupancy + len(payload) > budget:
                continue
            cam.update(payload)
            reference.update([binary_entry(v, WIDTH) for v in payload])
        elif op == "lookup":
            assert_same(cam.search_one(payload),
                        reference.search(payload), (op, payload))
        else:
            assert_same(cam.delete(payload),
                        reference.delete(payload), (op, payload))
    # closing sweep: every key answers identically
    for key in range(64):
        assert_same(cam.search_one(key), reference.search(key), key)


@pytest.mark.parametrize("policy", ["hash", "round_robin"])
@given(workload=ops)
@common_settings
def test_async_service_matches_reference(policy, workload):
    """The full async path (admission -> router -> micro-batch ->
    merge) under backpressure-inducing settings."""

    async def scenario():
        cam = ShardedCam(shard_config(), shards=4, policy=policy,
                         engine="batch")
        reference = ReferenceCam(cam.capacity)
        budget = insert_budget(cam)
        async with CamService(cam, max_batch=8, max_delay_s=0.001,
                              queue_depth=2,
                              request_timeout_s=30.0) as service:
            for op, payload in workload:
                if op == "insert":
                    if reference.occupancy + len(payload) > budget:
                        continue
                    response = await service.insert(payload)
                    assert response.ok
                    assert response.stats.words == len(payload)
                    reference.update(
                        [binary_entry(v, WIDTH) for v in payload]
                    )
                elif op == "lookup":
                    response = await service.lookup(payload)
                    assert response.ok
                    assert_same(response.result, reference.search(payload),
                                (op, payload))
                else:
                    response = await service.delete(payload)
                    assert response.ok
                    assert_same(response.result, reference.delete(payload),
                                (op, payload))
            # concurrent read-only burst: real coalescing, same answers
            probes = list(range(0, 64, 3))
            responses = await asyncio.gather(
                *[service.lookup(key) for key in probes]
            )
            for key, response in zip(probes, responses):
                assert response.ok
                assert_same(response.result, reference.search(key), key)

    asyncio.run(scenario())
