"""Unit tests for the shard routing policies."""

import random

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.service.sharding import _splitmix64
from repro.service import (
    POLICIES,
    HashShardPolicy,
    RangeShardPolicy,
    RoundRobinShardPolicy,
    ShardPolicy,
    policy_for,
)


def test_registry_covers_builtin_policies():
    assert set(POLICIES) == {"hash", "range", "round_robin"}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policy_for_resolves_names(name):
    policy = policy_for(name, 4, 16)
    assert policy.name == name
    assert policy.num_shards == 4


def test_policy_for_accepts_instances():
    policy = HashShardPolicy(4, 16, seed=7)
    assert policy_for(policy, 4, 16) is policy


def test_policy_for_rejects_shard_count_mismatch():
    with pytest.raises(ConfigError):
        policy_for(HashShardPolicy(2, 16), 4, 16)


def test_policy_for_rejects_unknown_name():
    with pytest.raises(ConfigError):
        policy_for("modulo", 4, 16)


def test_policy_validates_parameters():
    with pytest.raises(ConfigError):
        HashShardPolicy(0, 16)
    with pytest.raises(ConfigError):
        HashShardPolicy(4, 0)


def test_hash_routing_is_deterministic_and_in_range():
    policy = HashShardPolicy(5, 20)
    for key in list(range(64)) + [1 << 19, (1 << 20) - 1]:
        shard = policy.shard_for_key(key)
        assert 0 <= shard < 5
        assert shard == policy.shard_for_key(key)
        # inserts and lookups must agree for pinned policies
        assert shard == policy.shard_for_insert(key, index=123)


def test_hash_routing_masks_key_width():
    policy = HashShardPolicy(4, 8)
    assert policy.shard_for_key(0x101) == policy.shard_for_key(0x01)


def test_hash_spreads_sequential_keys():
    policy = HashShardPolicy(4, 32)
    shards = {policy.shard_for_key(key) for key in range(64)}
    assert shards == {0, 1, 2, 3}


def test_hash_seed_changes_routing():
    base = HashShardPolicy(16, 32, seed=0)
    other = HashShardPolicy(16, 32, seed=1)
    assert any(
        base.shard_for_key(k) != other.shard_for_key(k) for k in range(64)
    )


def test_range_policy_is_monotone_and_covers_all_shards():
    policy = RangeShardPolicy(4, 8)
    shards = [policy.shard_for_key(key) for key in range(256)]
    assert shards == sorted(shards)
    assert set(shards) == {0, 1, 2, 3}
    # equal-width slices: 256 keys over 4 shards = 64 each
    assert shards.count(0) == shards.count(3) == 64


def test_round_robin_stripes_by_insertion_order():
    policy = RoundRobinShardPolicy(3, 16)
    assert [policy.shard_for_insert(999, i) for i in range(6)] \
        == [0, 1, 2, 0, 1, 2]
    assert policy.broadcast_lookups
    assert policy.shard_for_key(999) is None


def test_pinned_policies_do_not_broadcast():
    assert not HashShardPolicy(4, 16).broadcast_lookups
    assert not RangeShardPolicy(4, 16).broadcast_lookups
    assert HashShardPolicy(4, 16).shard_for_key(3) is not None


def policy_variants(shards, width):
    yield HashShardPolicy(shards, width)
    yield HashShardPolicy(shards, width, seed=0x5EED_CAFE_F00D)
    yield RangeShardPolicy(shards, width)
    yield RoundRobinShardPolicy(shards, width)


@pytest.mark.parametrize("width", [8, 32, 48])
@pytest.mark.parametrize("shards", range(1, 8))
def test_array_routing_equals_scalar_routing(width, shards):
    rng = random.Random(width * 100 + shards)
    values = [rng.getrandbits(width) for _ in range(200)]
    values += [0, (1 << width) - 1]
    for policy in policy_variants(shards, width):
        # a few values take the scalar loop, many the NumPy body
        for size in (0, 1, 15, 16, len(values)):
            head = values[-size:] if size else []
            first = rng.randrange(1000)
            routed = policy.shards_for(head, first)
            assert routed.dtype == np.int64
            assert routed.tolist() == [
                policy.shard_for_insert(value, first + offset)
                for offset, value in enumerate(head)
            ], (policy, size)
            if not policy.broadcast_lookups:
                assert policy.shards_for(head, 0).tolist() == [
                    policy.shard_for_key(value) for value in head]


def test_base_policy_routes_arrays_through_the_scalar_hook():
    class ParityPolicy(ShardPolicy):
        name = "parity"

        def shard_for_insert(self, value, index):
            return value % 2

    policy = ParityPolicy(2, 8)
    assert policy.shards_for([4, 7, 9, 0], 10).tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("seed", [0, 0x5EED_CAFE_F00D, (1 << 64) + 7, -3])
def test_hash_array_routing_equals_scalar_splitmix64(seed):
    """The NumPy body (uint64 constants) routes exactly like the scalar
    finaliser, for any uint64 value -- 2^63 and above included."""
    rng = np.random.default_rng(abs(seed) % 1000)
    values = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    values[:3] = [0, 1 << 63, (1 << 64) - 1]
    for width in (16, 48):
        for shards in (1, 3, 4, 7):
            policy = HashShardPolicy(shards, width, seed=seed)
            assert policy.shards_for(values, 0).tolist() == [
                _splitmix64((value & ((1 << width) - 1)) ^ seed) % shards
                for value in values.tolist()
            ], (width, shards)
