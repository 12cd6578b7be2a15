"""ShardedCam façade: session protocol, merging, failure isolation."""

import pytest

from repro.core import CamType, ReferenceCam, binary_entry, unit_for_entries
from repro.core.batch import BatchSession
from repro.errors import (
    CapacityError,
    ConfigError,
    RoutingError,
    ShardFailedError,
    SimulationError,
)
from repro.service import FaultyBackend, ShardedCam, merge_results

WIDTH = 16


@pytest.fixture
def shard_config():
    """One shard: 32 entries (2 blocks of 16), 16-bit binary."""
    return unit_for_entries(32, block_size=16, data_width=WIDTH,
                            bus_width=128)


def reference_for(cam: ShardedCam) -> ReferenceCam:
    return ReferenceCam(cam.capacity)


def entries(values):
    return [binary_entry(v, WIDTH) for v in values]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_capacity_and_engine_name_aggregate(shard_config):
    cam = ShardedCam(shard_config, shards=4, engine="batch")
    assert cam.capacity == 128
    assert cam.num_shards == 4
    assert cam.engine_name == "sharded[4xbatch]"
    assert all(isinstance(s.replicas[0], BatchSession) for s in cam.sessions)
    assert [s.replicas[0].name for s in cam.sessions] \
        == [f"sharded_cam.shard{i}" for i in range(4)]


def test_rejects_invalid_shard_count(shard_config):
    with pytest.raises(ConfigError):
        ShardedCam(shard_config, shards=0)


def test_pinned_policy_requires_binary_cam():
    ternary = unit_for_entries(32, block_size=16, data_width=WIDTH,
                               bus_width=128, cam_type=CamType.TERNARY)
    with pytest.raises(ConfigError):
        ShardedCam(ternary, shards=2, policy="hash")
    # broadcast policy is fine with ternary cells
    ShardedCam(ternary, shards=2, policy="round_robin")


def test_resources_aggregate_over_shards(shard_config):
    one = ShardedCam(shard_config, shards=1, engine="batch").resources()
    four = ShardedCam(shard_config, shards=4, engine="batch").resources()
    assert four.dsp == 4 * one.dsp


# ----------------------------------------------------------------------
# result equivalence with the golden reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["hash", "range", "round_robin"])
def test_matches_reference_across_shards(shard_config, policy):
    cam = ShardedCam(shard_config, shards=4, policy=policy, engine="batch")
    ref = reference_for(cam)
    words = [3, 77, 3, 9000, 512, 77, 3, 65535, 0]
    cam.update(words)
    ref.update(entries(words))
    for key in [3, 77, 9000, 512, 65535, 0, 1234]:
        ours, gold = cam.search_one(key), ref.search(key)
        assert (ours.hit, ours.address, ours.match_vector) \
            == (gold.hit, gold.address, gold.match_vector), key


def test_cross_shard_priority_tie_resolves_globally(shard_config):
    """Duplicate keys striped across shards: the merged address must be
    the *globally* first-inserted copy, like one big CAM."""
    cam = ShardedCam(shard_config, shards=4, policy="round_robin",
                     engine="batch")
    ref = reference_for(cam)
    words = [42, 1, 42, 2, 42, 3]  # copies of 42 land on shards 0, 2, 0
    cam.update(words)
    ref.update(entries(words))
    ours, gold = cam.search_one(42), ref.search(42)
    assert ours.address == gold.address == 0
    assert ours.match_vector == gold.match_vector
    # delete invalidates every copy on every shard
    assert cam.delete(42).match_vector == ref.delete(42).match_vector
    assert not cam.contains(42)


def test_interleaved_updates_keep_insertion_order(shard_config):
    cam = ShardedCam(shard_config, shards=2, policy="round_robin",
                     engine="batch")
    ref = reference_for(cam)
    for chunk in ([10, 11], [12], [13, 14, 15]):
        cam.update(chunk)
        ref.update(entries(chunk))
    for key in range(10, 16):
        assert cam.search_one(key).address == ref.search(key).address


def test_search_many_preserves_input_positions(shard_config):
    cam = ShardedCam(shard_config, shards=4, policy="hash", engine="batch")
    cam.update([5, 6, 7])
    results = cam.search([7, 99, 5])
    assert [r.key for r in results] == [7, 99, 5]
    assert [r.hit for r in results] == [True, False, True]


def test_reset_restarts_global_addressing(shard_config):
    cam = ShardedCam(shard_config, shards=2, engine="batch")
    cam.update([1, 2, 3])
    cam.reset()
    assert cam.occupancy == 0
    cam.update([9])
    assert cam.search_one(9).address == 0


def test_reset_is_result_identical_to_fresh(shard_config):
    """Regression: reset() must clear poisoned-shard state and the
    address-translation tables -- a reset CAM behaves exactly like a
    freshly constructed one, including after a shard fault."""
    def poisoning_factory(index, replica, cfg):
        session = BatchSession(cfg, name=f"sharded_cam.shard{index}")
        if index == 1:
            return FaultyBackend(session, fail_after=4)
        return session

    used = ShardedCam(shard_config, shards=2, engine="batch",
                      session_factory=poisoning_factory)
    used.update([1, 2, 3, 4, 5, 6])
    used.delete(3)
    with pytest.raises(ShardFailedError):
        for value in range(10, 30):
            used.update([value])
    assert used.poisoned_shards == (1,)

    # swap in a healthy node, then reset: a fresh episode begins with
    # every shard revived and the address map empty
    used.sessions[1].replicas[0].heal()
    used.reset()
    assert used.poisoned_shards == ()
    assert used.occupancy == 0

    fresh = ShardedCam(shard_config, shards=2, engine="batch")
    workload = [40, 41, 42, 43, 44]
    used.update(workload)
    fresh.update(workload)
    used.delete(41)
    fresh.delete(41)
    for key in workload + [1, 3, 99]:
        ours, gold = used.search_one(key), fresh.search_one(key)
        assert (ours.hit, ours.address, ours.match_vector) \
            == (gold.hit, gold.address, gold.match_vector), key
    assert used.snapshot().content_hash() == fresh.snapshot().content_hash()


# ----------------------------------------------------------------------
# protocol guard rails
# ----------------------------------------------------------------------
def test_group_targeting_is_rejected(shard_config):
    cam = ShardedCam(shard_config, shards=2, engine="batch")
    with pytest.raises(RoutingError):
        cam.update([1], group=0)
    with pytest.raises(RoutingError):
        cam.search([1], groups=[0])
    with pytest.raises(RoutingError):
        cam.search_one(1, group=0)


def test_aggregate_capacity_enforced(shard_config):
    cam = ShardedCam(shard_config, shards=2, engine="batch")
    with pytest.raises(CapacityError):
        cam.update(list(range(cam.capacity + 1)))


def test_cycle_counter_is_max_over_shards(shard_config):
    cam = ShardedCam(shard_config, shards=4, engine="batch")
    cam.update(list(range(16)))
    cam.search(list(range(16)))
    assert cam.cycle == max(s.cycle for s in cam.sessions)
    stats = cam.last_search_stats
    assert stats is not None and stats.keys == 16


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------
def poisoned_cam(shard_config, bad_shard=1, fail_after=0, shards=4,
                 policy="hash", replicas=1):
    """Every replica of ``bad_shard`` faults after ``fail_after`` ops."""
    from repro.core.batch import open_session

    def factory(index, replica, cfg):
        session = open_session(cfg, engine="batch", name=f"t.shard{index}")
        if index == bad_shard:
            return FaultyBackend(session, fail_after)
        return session

    return ShardedCam(shard_config, shards=shards, policy=policy,
                      replicas=replicas, session_factory=factory)


@pytest.mark.parametrize("replicas", [1, 2])
def test_backend_fault_poisons_only_that_shard(shard_config, replicas):
    cam = poisoned_cam(shard_config, bad_shard=1, replicas=replicas)
    with pytest.raises(ShardFailedError) as excinfo:
        cam.update_shard(1, [123])
    assert excinfo.value.shard == 1
    assert isinstance(excinfo.value.__cause__, SimulationError)
    assert cam.poisoned_shards == (1,)
    assert not cam.shard_healthy(1) and cam.shard_healthy(0)
    # healthy shards still serve
    cam.update_shard(0, [55])
    assert cam.search_shard(0, [55])[0].hit


@pytest.mark.parametrize("replicas", [1, 2])
def test_poisoned_shard_fails_fast_without_backend_call(shard_config,
                                                        replicas):
    cam = poisoned_cam(shard_config, bad_shard=2, replicas=replicas)
    with pytest.raises(ShardFailedError):
        cam.search_shard(2, [1])
    # fenced: the wrapped backend is not called again, the error repeats
    with pytest.raises(ShardFailedError):
        cam.delete_shard(2, 1)


@pytest.mark.parametrize("replicas", [1, 2])
def test_client_errors_do_not_poison(shard_config, replicas):
    cam = ShardedCam(shard_config, shards=2, engine="batch",
                     replicas=replicas)
    with pytest.raises(CapacityError):
        cam.update_shard(0, list(range(cam.sessions[0].capacity + 1)))
    assert cam.poisoned_shards == ()


def test_partial_landing_keeps_address_map_consistent(shard_config):
    """A capacity overflow lands the beats that fit; the global address
    map must stay aligned with what actually landed."""
    cam = ShardedCam(shard_config, shards=2, engine="batch")
    per_shard = cam.sessions[0].capacity
    with pytest.raises(CapacityError):
        cam.update_shard(0, list(range(1000, 1000 + per_shard + 4)))
    landed = cam.sessions[0].occupancy
    assert len(cam._global_addrs[0]) == landed
    # the landed words still answer correctly through the global map
    result = cam.search_shard(0, [1000])[0]
    assert result.hit and result.address == 0


@pytest.mark.parametrize("replicas", [1, 2])
def test_a_bad_word_lands_none_of_its_batch(shard_config, replicas):
    """Words are checked once, before any shard stores a word of the
    batch: occupancy, the address space and the content stay as they
    were, so a retry cannot store the good words twice."""
    cam = ShardedCam(shard_config, shards=4, engine="batch",
                     replicas=replicas)
    cam.update([7, 8, 9])
    before = (cam.occupancy, cam._global_count,
              cam.snapshot().content_hash())
    with pytest.raises(ConfigError, match="does not fit"):
        cam.update(list(range(1, 40)) + [1 << 20])
    assert (cam.occupancy, cam._global_count,
            cam.snapshot().content_hash()) == before
    assert not cam.search(list(range(1, 7))).hits.any()
    assert cam.poisoned_shards == () == cam.degraded_shards


@pytest.mark.parametrize("replicas", [1, 2])
def test_a_word_past_int64_is_a_client_error(shard_config, replicas):
    """2^63 and wider are bad words like any other: ConfigError at every
    edge, no replica fenced, every shard still takes writes."""
    cam = ShardedCam(shard_config, shards=4, engine="batch",
                     replicas=replicas)
    for words in ([1 << 63], [5, 1 << 70], [-1]):
        with pytest.raises(ConfigError):
            cam.update(words)
        with pytest.raises(ConfigError):
            cam.update_shard(3, words)
    assert cam.poisoned_shards == () == cam.degraded_shards
    assert cam.occupancy == 0 and cam._global_count == 0
    cam.update(list(range(40)))
    assert cam.search(list(range(40))).addresses.tolist() == list(range(40))


def test_partition_update_returns_rows_in_input_order(shard_config):
    cam = ShardedCam(shard_config, shards=3, policy="round_robin")
    cam.update([1])
    parts = cam.partition_update(range(10, 17))
    assert sorted(parts) == [0, 1, 2]
    rows, addresses = parts[1]  # insertion indexes 1, 4 and 7
    assert rows.tolist() == [[10, 0xFFFF], [13, 0xFFFF], [16, 0xFFFF]]
    assert addresses.tolist() == [1, 4, 7]
    assert [len(words) for words, _ in parts.values()] == [2, 3, 2]
    assert cam._global_count == 8


def test_merge_results_ors_global_vectors():
    from repro.core.types import SearchResult

    merged = merge_results(7, [
        SearchResult.from_vector(7, 0b0100),
        SearchResult.from_vector(7, 0b1000),
    ])
    assert merged.match_vector == 0b1100
    assert merged.address == 2
    empty = merge_results(7, [])
    assert not empty.hit and empty.match_vector == 0
