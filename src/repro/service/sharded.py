"""Sharded CAM façade: one logical CAM over N per-shard sessions.

:class:`ShardedCam` scales the single-unit session horizontally, the
way the banked CAM architectures in the related work scale past one
unit's frequency droop: the key space is partitioned across ``shards``
independent backend sessions (each a :func:`repro.core.open_session`
engine -- batch by default, ``audit`` for per-shard shadow
verification), and per-shard answers are merged back into one result.

The merge preserves the paper's priority-encoding semantics across
shard boundaries by translating every shard-local match onto a
**global address space**: global address = global insertion index,
exactly the numbering :class:`repro.core.ReferenceCam` uses. Each
shard's :class:`~repro.core.types.SearchBatch` is rebased through a
NumPy local-to-global address table and the per-shard matches are
merged by key, so ``address`` (the lowest matching global address) is
the *globally* first-inserted match even when candidates live on
different shards -- a sharded service is therefore result-identical
to one big reference CAM.

Failure isolation: every shard is a
:class:`~repro.service.replica.ReplicaSet` of ``replicas >= 1``
sessions, and the set is the shard's only failure fence. A replica
that raises unexpectedly is fenced off and its peers serve on; a shard
has *failed* (is poisoned) exactly when its set has no healthy replica
left. Operations touching a failed shard raise
:class:`~repro.errors.ShardFailedError` without calling a backend,
instead of corrupting state; the async service layer
(:mod:`repro.service.scheduler`) catches that error per request and
degrades to miss-with-error while healthy shards keep serving. A reset
or a restore heals every replica it succeeds on.

Cycle accounting treats shards as parallel hardware banks: one
logical operation costs the *maximum* of the per-shard cycle deltas,
and :attr:`cycle` is the slowest shard's counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.config import UnitConfig
from repro.core.mask import entry_rows
from repro.core.session import (
    RawWord,
    SearchStats,
    UpdateStats,
    publish_search_metrics,
    publish_update_metrics,
)
from repro.core.types import (
    CamBackend,
    CamType,
    Encoding,
    SearchBatch,
    SearchResult,
    check_key,
    key_array,
)
from repro.errors import (
    CLIENT_ERRORS,
    CapacityError,
    ConfigError,
    ReplicaExhaustedError,
    RoutingError,
    ShardFailedError,
    SnapshotError,
)
from repro.fabric.resources import total as total_resources
from repro.service.replica import ReplicaSet
from repro.service.sharding import ShardPolicy, policy_for


def merge_results(
    key: int,
    partials: Sequence[SearchResult],
    encoding=None,
) -> SearchResult:
    """Merge globally-mapped per-shard results for one key.

    ORs the (already global) match vectors; the rebuilt result's
    address is the lowest global address, i.e. the globally
    first-inserted match -- priority encoding across shard boundaries.
    A single partial is already the answer and comes back unchanged.
    """
    if len(partials) == 1:
        return partials[0]
    vector = 0
    for partial in partials:
        vector |= partial.match_vector
    if encoding is None:
        encoding = partials[0].encoding if partials else Encoding.PRIORITY
    return SearchResult.from_vector(key, vector, encoding)


class ShardedCam:
    """One logical CAM served by ``shards`` independent sessions.

    Conforms to the :class:`repro.core.CamBackend` protocol (``update``
    / ``search`` / ``search_one`` / ``contains`` / ``delete`` /
    ``reset`` / ``idle`` / ``snapshot`` / ``restore`` plus the
    capacity/occupancy/cycle properties), so callers written against
    :class:`~repro.core.CamSession` work unchanged; construct it
    through :func:`repro.open_session` with ``shards > 1`` (and
    ``replicas > 1`` for replicated shards).

    ``config`` describes **one shard's** unit; total capacity is
    ``shards`` times the per-shard capacity. Pinned policies (hash,
    range) require a binary CAM -- the routing function must agree for
    stored words and search keys -- while the broadcast round-robin
    policy accepts any CAM type.

    ``session_factory(shard, replica, config)`` builds each backend
    (default: :func:`~repro.core.open_session` with ``engine``). It is
    called once per replica, and each shard serves its replicas through
    a :class:`~repro.service.replica.ReplicaSet` (one replica by
    default).
    """

    def __init__(
        self,
        config: UnitConfig,
        *,
        shards: int,
        policy: Union[str, ShardPolicy] = "hash",
        engine: str = "batch",
        name: str = "sharded_cam",
        replicas: int = 1,
        session_factory=None,
        **session_kwargs,
    ) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self.config = config
        self.name = name
        self.policy = policy_for(policy, shards, config.data_width)
        if (not self.policy.broadcast_lookups
                and config.block.cell.cam_type is not CamType.BINARY):
            raise ConfigError(
                f"shard policy {self.policy.name!r} pins lookups by exact "
                "key and needs a binary CAM; use the broadcast "
                "'round_robin' policy for ternary/range configurations"
            )
        self.engine = engine
        self.num_replicas = replicas
        if session_factory is None:
            from repro.core.batch import open_session

            def session_factory(shard: int, replica: int,
                                cfg: UnitConfig) -> CamBackend:
                suffix = f".r{replica}" if replicas > 1 else ""
                return open_session(cfg, engine=engine,
                                    name=f"{name}.shard{shard}{suffix}",
                                    **session_kwargs)

        self.sessions: Tuple[ReplicaSet, ...] = tuple(
            ReplicaSet([session_factory(shard, replica, config)
                        for replica in range(replicas)],
                       name=f"{name}.shard{shard}")
            for shard in range(shards)
        )
        self._flush_addressing()
        self.last_update_stats: Optional[UpdateStats] = None
        self.last_search_stats: Optional[SearchStats] = None

    # ------------------------------------------------------------------
    # structure / session-protocol properties
    # ------------------------------------------------------------------
    @property
    def engine_name(self) -> str:
        if self.num_replicas > 1:
            return (f"sharded[{self.num_shards}x{self.num_replicas}x"
                    f"{self.engine}]")
        return f"sharded[{self.num_shards}x{self.engine}]"

    @property
    def num_shards(self) -> int:
        return len(self.sessions)

    @property
    def capacity(self) -> int:
        """Aggregate entries across every shard."""
        return sum(session.capacity for session in self.sessions)

    @property
    def occupancy(self) -> int:
        """Stored words (including delete holes) across every shard."""
        return sum(session.occupancy for session in self.sessions)

    @property
    def cycle(self) -> int:
        """Slowest shard's cycle counter (shards run in parallel)."""
        return max(session.cycle for session in self.sessions)

    @property
    def num_groups(self) -> int:
        return self.sessions[0].num_groups

    @property
    def search_latency(self) -> int:
        return self.sessions[0].search_latency

    @property
    def update_latency(self) -> int:
        return self.sessions[0].update_latency

    @property
    def words_per_beat(self) -> int:
        return self.sessions[0].words_per_beat

    @property
    def trace(self):
        return None

    @property
    def poisoned_shards(self) -> Tuple[int, ...]:
        """Failed shards: no healthy replica left to serve them."""
        return tuple(shard for shard in range(self.num_shards)
                     if not self.shard_healthy(shard))

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        """Shards that need attention: at least one failed replica
        (every failed shard is degraded too)."""
        return tuple(shard for shard, session in enumerate(self.sessions)
                     if session.failed_replicas)

    def shard_healthy(self, shard: int) -> bool:
        session = self.sessions[shard]
        return len(session.failed_replicas) < session.num_replicas

    def resources(self):
        """Aggregate resource vector (N times one shard's unit)."""
        return total_resources(s.resources() for s in self.sessions)

    # ------------------------------------------------------------------
    # fault fencing
    # ------------------------------------------------------------------
    def _fenced(self, shard: int, call, *args):
        """Run one call on a shard's replica set. An exhausted set
        surfaces as :class:`ShardFailedError`, whose message and
        ``__cause__`` name the fault that exhausted it."""
        try:
            return call(*args)
        except ReplicaExhaustedError as exc:
            fault = exc.__cause__ or exc
            raise ShardFailedError(
                shard, f"{type(fault).__name__}: {fault}") from fault

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise RoutingError(
                f"{self.name}: shard {shard} out of range "
                f"(0..{self.num_shards - 1})"
            )

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------
    def _rows(self, words) -> np.ndarray:
        """``words`` as checked ``(value, care)`` rows (rows pass as is)."""
        return entry_rows(words, self.config.data_width,
                          self.config.block.cell.cam_type)

    def _assign_addresses(self, shard: int, addresses: Sequence[int]) -> None:
        self._global_addrs[shard] = np.concatenate(
            [self._global_addrs[shard], np.asarray(addresses, dtype=np.int64)])
        self._ascending[shard] = None

    def _rebase(self, shard: int, batch: SearchBatch) -> SearchBatch:
        """A shard batch in global addresses. Addresses bind in
        admission order, so a table is normally strictly ascending and
        the rebase keeps each key's addresses sorted as they come; that
        fact is checked once per table change."""
        table = self._global_addrs[shard]
        if self._ascending[shard] is None:
            self._ascending[shard] = bool((table[1:] > table[:-1]).all())
        return batch.rebase(table, ascending=self._ascending[shard])

    # ------------------------------------------------------------------
    # shard-level primitives (the async scheduler dispatches these)
    # ------------------------------------------------------------------
    def update_shard(
        self,
        shard: int,
        words: Sequence[RawWord],
        addresses: Optional[Sequence[int]] = None,
    ) -> UpdateStats:
        """Store ``words`` on one shard, binding them to global
        addresses (freshly allocated unless ``addresses`` preassigns
        them, which the batched front door uses to keep interleaved
        input order). ``words`` may be the ``(value, care)`` rows
        :meth:`partition_update` returns; they go down as they are."""
        self._check_shard(shard)
        rows = self._rows(words)
        if addresses is None:
            addresses = range(self._global_count, self._global_count + len(rows))
            self._global_count += len(rows)
        session = self.sessions[shard]
        with obs.span("svc.shard.update", shard=shard, words=len(rows)):
            try:
                stats = self._fenced(shard, session.update, rows)
            except CLIENT_ERRORS:
                # The batch engine lands the beats that fit before the
                # overflowing beat raises; keep the address map (one
                # entry per stored word) in sync with what landed.
                landed = session.occupancy - len(self._global_addrs[shard])
                self._assign_addresses(shard, addresses[:landed])
                raise
        self._assign_addresses(shard, addresses)
        obs.inc("svc_shard_ops_total", help="operations executed per shard",
                shard=shard, op="update")
        return stats

    def search_shard(self, shard: int, keys: Sequence[int]) -> SearchBatch:
        """Search ``keys`` on one shard; the batch comes back in
        global addresses (for pinned policies the final answer)."""
        self._check_shard(shard)
        with obs.span("svc.shard.search", shard=shard, keys=len(keys)):
            batch = self._fenced(shard, self.sessions[shard].search, keys)
        obs.inc("svc_shard_ops_total", shard=shard, op="search")
        return self._rebase(shard, batch)

    def delete_shard(self, shard: int, key: int) -> SearchResult:
        """Delete-by-content on one shard; returns the globally-mapped
        view of what was invalidated."""
        self._check_shard(shard)
        with obs.span("svc.shard.delete", shard=shard):
            result = self._fenced(shard, self.sessions[shard].delete, key)
        obs.inc("svc_shard_ops_total", shard=shard, op="delete")
        local = SearchBatch.from_results([result], result.encoding)
        return self._rebase(shard, local)[0]

    def partition_update(
        self, words: Sequence[RawWord]
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Route an update across shards, binding each word to a global
        address in **input order** (the reference model's insertion
        numbering). Returns ``{shard: (words, addresses)}``, each shard's
        words as checked ``(value, care)`` rows in input order; pass each
        entry to :meth:`update_shard`. A bad word raises here, before any
        address is bound. Every word consumes its global index at
        partition time, so addressing stays deterministic even if a
        later per-shard dispatch fails or never runs."""
        rows = self._rows(words)
        count = len(rows)
        if self.occupancy + count > self.capacity:
            raise CapacityError(
                f"{self.name}: {count} words exceed aggregate capacity "
                f"({self.occupancy}/{self.capacity} used)"
            )
        base = self._global_count
        owners = self.policy.shards_for(rows[:, 0], base)
        # one stable sort groups the words by shard, input order kept
        order = owners.argsort(kind="stable")
        bounds = [0] + np.bincount(owners, minlength=self.num_shards
                                   ).cumsum().tolist()
        rows, addresses = rows[order], order + base
        parts = {shard: (rows[start:stop], addresses[start:stop])
                 for shard, (start, stop) in enumerate(zip(bounds, bounds[1:]))
                 if stop > start}
        self._global_count = base + count
        return parts

    def shards_for_key(self, key: int) -> List[int]:
        """Shards that must answer ``key``; a ConfigError outside int64."""
        pinned = self.policy.shard_for_key(check_key(key))
        if pinned is None:
            return list(range(self.num_shards))
        return [pinned]

    # ------------------------------------------------------------------
    # session protocol (blocking front door)
    # ------------------------------------------------------------------
    def update(
        self, words: Sequence[RawWord], group: Optional[int] = None
    ) -> UpdateStats:
        """Partition ``words`` across shards and store them.

        Global addresses follow the input order (exactly the reference
        model's insertion numbering) even when consecutive words land
        on different shards.
        """
        if group is not None:
            raise RoutingError(
                f"{self.name}: the sharded service routes storage itself; "
                "per-call group targeting is not supported"
            )
        parts = self.partition_update(words)
        count = sum(len(rows) for rows, _ in parts.values())
        with obs.span("svc.update", engine=self.engine_name, words=count):
            done = [self.update_shard(shard, rows, addresses=addresses)
                    for shard, (rows, addresses) in sorted(parts.items())]
            stats = UpdateStats(words=count,
                                beats=max(s.beats for s in done),
                                cycles=max(s.cycles for s in done))
        self.last_update_stats = stats
        if obs.enabled():
            publish_update_metrics(self, stats)
        return stats

    def search(
        self,
        keys: Sequence[int],
        groups: Optional[Sequence[int]] = None,
    ) -> SearchBatch:
        """Search ``keys``; answers merged across shards by global
        priority. Pinned policies touch one shard per key; broadcast
        policies fan every key to every shard."""
        if groups is not None:
            raise RoutingError(
                f"{self.name}: the sharded service routes queries itself; "
                "per-call group pinning is not supported"
            )
        keys = key_array(keys)
        if not keys.size:
            raise ConfigError("search needs at least one key")
        with obs.span("svc.search", engine=self.engine_name, keys=keys.size):
            owners = None
            targets = range(self.num_shards)
            if not self.policy.broadcast_lookups:
                owners = self.policy.shards_for(keys.astype(np.uint64), 0)
                targets = sorted(set(owners.tolist()))
                if len(targets) == 1:
                    owners = None  # one shard takes every key
            matches = []
            beats = cycles = 0
            for shard in targets:
                picks = (np.arange(keys.size) if owners is None
                         else np.flatnonzero(owners == shard))
                part = self.search_shard(shard, keys[picks])
                shard_stats = self.sessions[shard].last_search_stats
                beats = max(beats, shard_stats.beats)
                cycles = max(cycles, shard_stats.cycles)
                matches.append((picks[part.rows], part.cols))
            # one shard answered every key: its batch is the answer;
            # pinned keys each answer from one shard (disjoint rows)
            results = part if len(matches) == 1 else SearchBatch.gather(
                keys, matches, self.config.block.encoding,
                disjoint=owners is not None)
            stats = SearchStats(keys=keys.size, beats=beats, cycles=cycles)
        self.last_search_stats = stats
        if obs.enabled():
            publish_search_metrics(self, stats, hits=int(results.hits.sum()))
        return results

    def search_one(self, key: int, group: Optional[int] = None) -> SearchResult:
        if group is not None:
            raise RoutingError(
                f"{self.name}: per-call group pinning is not supported"
            )
        return self.search([key])[0]

    def contains(self, key: int) -> bool:
        return self.search_one(key).hit

    def delete(self, key: int) -> SearchResult:
        """Delete-by-content everywhere ``key`` may live."""
        with obs.span("svc.delete", engine=self.engine_name):
            partials = [
                self.delete_shard(shard, key)
                for shard in self.shards_for_key(key)
            ]
        return merge_results(int(key), partials)

    # ------------------------------------------------------------------
    def set_groups(self, num_groups: int) -> None:
        """Regroup every shard (flushes all content, like the unit)."""
        with obs.span("svc.set_groups", engine=self.engine_name,
                      groups=num_groups):
            for shard, session in enumerate(self.sessions):
                self._fenced(shard, session.set_groups, num_groups)
        self._flush_addressing()

    def reset(self) -> None:
        """Clear every shard and restart the global address space.

        Reset is also the recovery hammer: every replica of every shard
        is reset, failed ones included, and each one whose reset
        succeeds is healed -- an empty shard is trivially consistent
        with an empty address map, so a reset sharded CAM is
        result-identical to a freshly constructed one
        (regression-tested against a fresh instance). A shard whose
        replicas all still fault during the reset stays failed.
        """
        with obs.span("svc.reset", engine=self.engine_name):
            for session in self.sessions:
                try:
                    session.reset()
                except ReplicaExhaustedError:
                    continue
        self._flush_addressing()

    def _flush_addressing(self) -> None:
        #: shard -> int64 table of local address -> global address.
        self._global_addrs = [np.zeros(0, dtype=np.int64)
                              for _ in range(self.num_shards)]
        #: shard -> whether its table is strictly ascending (None:
        #: not checked since the table last changed).
        self._ascending = [None] * self.num_shards
        self._global_count = 0

    def idle(self, cycles: int = 1) -> None:
        for session in self.sessions:
            session.idle(cycles)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture every shard plus the global address maps.

        The children are the per-shard snapshots (each taken from a
        healthy replica of the shard's set); the metadata carries the
        local-to-global address tables, so a restore reproduces
        cross-shard priority order exactly.
        """
        from repro.service.snapshot import CamSnapshot

        children = []
        for shard, session in enumerate(self.sessions):
            children.append(self._fenced(shard, session.snapshot))
        return CamSnapshot(
            kind="sharded",
            meta={
                "shards": self.num_shards,
                "replicas": self.num_replicas,
                "policy": self.policy.name,
                "engine": self.engine,
                "global_count": self._global_count,
                "global_addrs": [t.tolist() for t in self._global_addrs],
            },
            children=children,
        )

    def restore(self, snapshot) -> None:
        """Restore every shard and the address maps from a snapshot.

        A successful restore also heals failed replicas: each one now
        verifiably holds the snapshotted content. An incompatible
        snapshot raises :class:`~repro.errors.SnapshotError` and fences
        nothing.
        """
        if snapshot.kind != "sharded":
            raise SnapshotError(
                f"{self.name}: cannot restore a {snapshot.kind!r} snapshot "
                "into a sharded CAM"
            )
        if snapshot.meta.get("shards") != self.num_shards:
            raise SnapshotError(
                f"{self.name}: snapshot has {snapshot.meta.get('shards')} "
                f"shards, this CAM has {self.num_shards}"
            )
        if snapshot.meta.get("policy") != self.policy.name:
            raise SnapshotError(
                f"{self.name}: snapshot used policy "
                f"{snapshot.meta.get('policy')!r}, this CAM routes with "
                f"{self.policy.name!r}"
            )
        if len(snapshot.children) != self.num_shards:
            raise SnapshotError(
                f"{self.name}: snapshot carries {len(snapshot.children)} "
                f"shard children, this CAM has {self.num_shards}"
            )
        tables = snapshot.meta.get("global_addrs")
        if not isinstance(tables, list) or len(tables) != self.num_shards:
            raise SnapshotError(
                f"{self.name}: snapshot is missing per-shard address tables"
            )
        for shard, (session, child) in enumerate(
            zip(self.sessions, snapshot.children)
        ):
            self._fenced(shard, session.restore, child)
        self._global_addrs = [np.asarray(table, dtype=np.int64)
                              for table in tables]
        self._ascending = [None] * self.num_shards
        self._global_count = int(snapshot.meta.get("global_count", 0))
