"""Key-space partitioning policies for the sharded CAM service.

The hardware papers this service mirrors (Preusser et al.'s DSP update
queues, Nguyen et al.'s RAM-based I-CAM) scale past a single unit by
splitting the key space across parallel CAM banks behind an arbiter.
A :class:`ShardPolicy` is that arbiter's routing function in software:
it decides which backend stores a word and which backend (if any one
in particular) can answer a lookup.

Three built-in policies:

- :class:`HashShardPolicy` -- mix the key with a 64-bit finaliser and
  take it modulo the shard count. Balanced under skew, and lookups are
  *pinned*: a key can only ever live on one shard, so a search touches
  exactly one backend.
- :class:`RangeShardPolicy` -- contiguous slices of the key space.
  Pinned like hashing, preserves locality (range scans touch few
  shards), but inherits the workload's key skew.
- :class:`RoundRobinShardPolicy` -- perfect insert balance, but a key
  may land anywhere, so lookups and deletes *broadcast* to every shard
  and the service merges the per-shard answers.

Pinned policies require exact-match (binary) CAM configurations: the
routing function must agree for the stored word and the search key,
which wildcard/range entries cannot guarantee. Broadcast policies
carry no such restriction.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Union

import numpy as np

from repro.dsp.primitives import mask_for
from repro.errors import ConfigError


class ShardPolicy(abc.ABC):
    """Routing function of the sharded service's front-end arbiter."""

    #: Short name used in configuration, metrics labels and manifests.
    name: str = "abstract"

    def __init__(self, num_shards: int, data_width: int) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if data_width < 1:
            raise ConfigError(f"data_width must be >= 1, got {data_width}")
        self.num_shards = num_shards
        self.data_width = data_width
        self._mask = mask_for(data_width)

    # ------------------------------------------------------------------
    @property
    def broadcast_lookups(self) -> bool:
        """True when lookups must fan out to every shard."""
        return False

    def mask_key(self, key: int) -> int:
        """The canonical routed form of a key (width-masked)."""
        return int(key) & self._mask

    @abc.abstractmethod
    def shard_for_insert(self, value: int, index: int) -> int:
        """Owning shard for stored word ``value`` (``index`` is the
        global insertion index, used by order-based policies)."""

    def shards_for(self, values: Sequence[int],
                   first_index: int) -> np.ndarray:
        """:meth:`shard_for_insert` of each masked non-negative value,
        value ``i`` at insertion index ``first_index + i``; pinned lookups
        route ``shards_for(keys, 0)``. Built-ins override it in NumPy."""
        return np.fromiter(
            (self.shard_for_insert(self.mask_key(value), first_index + offset)
             for offset, value in enumerate(values)),
            dtype=np.int64, count=len(values),
        )

    def shard_for_key(self, key: int) -> Optional[int]:
        """Shard that can answer a lookup for ``key``; ``None`` means
        every shard must be asked (broadcast)."""
        return self.shard_for_insert(self.mask_key(key), 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(num_shards={self.num_shards}, "
                f"data_width={self.data_width})")


_M64 = 0xFFFFFFFFFFFFFFFF


#: splitmix64's add, multiply and shift constants, with the 64-bit wrap
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
             30, 27, 31, _M64)
#: ... and as ``uint64`` scalars, so the array form converts no Python
#: int per call
_SPLITMIX_U64 = tuple(np.uint64(c) for c in _SPLITMIX)


def _splitmix64(value, constants=_SPLITMIX):
    """The splitmix64 finaliser: cheap, well-mixed 64-bit hash (of an
    int, or elementwise of a ``uint64`` array with ``_SPLITMIX_U64``)."""
    gamma, mix1, mix2, shift1, shift2, shift3, wrap = constants
    value = (value + gamma) & wrap
    value = ((value ^ (value >> shift1)) * mix1) & wrap
    value = ((value ^ (value >> shift2)) * mix2) & wrap
    return value ^ (value >> shift3)


class HashShardPolicy(ShardPolicy):
    """Mix-then-modulo hash partitioning (pinned lookups)."""

    name = "hash"

    def __init__(self, num_shards: int, data_width: int, seed: int = 0) -> None:
        super().__init__(num_shards, data_width)
        self.seed = seed
        # splitmix64 works mod 2^64: the seed's low 64 bits are all of it
        self._u_mask, self._u_seed, self._u_shards = (
            np.uint64(self._mask), np.uint64(seed & _M64),
            np.uint64(num_shards))

    def shard_for_insert(self, value: int, index: int) -> int:
        return _splitmix64(self.mask_key(value) ^ self.seed) % self.num_shards

    def shards_for(self, values, first_index):
        if len(values) < 16:  # NumPy's per-call cost loses to the loop
            return super().shards_for(values, first_index)
        values = np.asarray(values, dtype=np.uint64) & self._u_mask
        mixed = _splitmix64(values ^ self._u_seed, _SPLITMIX_U64)
        return (mixed % self._u_shards).astype(np.int64)


class RangeShardPolicy(ShardPolicy):
    """Contiguous key-space slices (pinned lookups, preserves order)."""

    name = "range"

    def shard_for_insert(self, value: int, index: int) -> int:
        # floor(key * N / 2^width): equal-width slices without division
        # bias at the top of the key space.
        return (self.mask_key(value) * self.num_shards) >> self.data_width

    def shards_for(self, values, first_index):
        if self._mask * self.num_shards > _M64:  # product leaves uint64
            return super().shards_for(values, first_index)
        values = np.asarray(values, dtype=np.uint64) & np.uint64(self._mask)
        return ((values * np.uint64(self.num_shards))
                >> np.uint64(self.data_width)).astype(np.int64)


class RoundRobinShardPolicy(ShardPolicy):
    """Insertion-order striping (broadcast lookups).

    Perfectly balanced storage; the price is that a key may live on any
    shard, so the service fans lookups and deletes out to every backend
    and merges the answers by global priority.
    """

    name = "round_robin"

    @property
    def broadcast_lookups(self) -> bool:
        return True

    def shard_for_insert(self, value: int, index: int) -> int:
        return index % self.num_shards

    def shards_for(self, values, first_index):
        indices = np.arange(first_index, first_index + len(values))
        return indices % self.num_shards

    def shard_for_key(self, key: int) -> Optional[int]:
        return None


#: Registry of the built-in policies by name.
POLICIES = {
    HashShardPolicy.name: HashShardPolicy,
    RangeShardPolicy.name: RangeShardPolicy,
    RoundRobinShardPolicy.name: RoundRobinShardPolicy,
}


def policy_for(
    policy: Union[str, ShardPolicy], num_shards: int, data_width: int
) -> ShardPolicy:
    """Resolve a policy spec (name or instance) for a service."""
    if isinstance(policy, ShardPolicy):
        if policy.num_shards != num_shards:
            raise ConfigError(
                f"policy routes {policy.num_shards} shards but the service "
                f"has {num_shards}"
            )
        return policy
    try:
        cls = POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown shard policy {policy!r}; pick one of {sorted(POLICIES)}"
        ) from None
    return cls(num_shards, data_width)
