"""Replicated shard backends: fan-out writes, failover reads, repair.

A :class:`ReplicaSet` puts ``R`` identically-configured sessions behind
the single-session protocol, so it slots into
:class:`~repro.service.sharded.ShardedCam` (and anything else written
against :class:`~repro.core.types.CamBackend`) unchanged:

- **writes** (``update`` / ``delete`` / ``set_groups``) fan out to
  every healthy replica, keeping their content bit-identical;
- **reads** (``search`` / ``search_one`` / ``contains``) go to the
  *preferred* replica; if it faults, the set marks it failed, fails
  over to the next healthy peer and retries -- the caller never sees
  the fault while at least one peer is healthy;
- **divergence beats**: every ``beat_every`` write operations the set
  compares the replicas' snapshot content hashes
  (:meth:`~repro.service.snapshot.CamSnapshot.content_hash`); a
  replica disagreeing with the majority (ties break toward the
  preferred replica) is marked failed and reported through
  :mod:`repro.obs` -- this is what catches a *silently* corrupt
  backend that still answers without raising;
- **live recovery**: a failed replica is rebuilt from a healthy peer's
  snapshot plus a bounded *catch-up log* of the writes admitted while
  the rebuild was in flight (:meth:`begin_rebuild` /
  :meth:`finish_rebuild`), then reinstated. The async service layer
  drives this through :meth:`CamService.repair_shard
  <repro.service.scheduler.CamService.repair_shard>`.

Only :class:`~repro.errors.ReplicaExhaustedError` escapes to the
sharded layer (when *no* replica can serve); client errors
(capacity/config/routing/mask) propagate unchanged -- they leave every
replica in the same deterministic state, so they are not faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import (
    CLIENT_ERRORS,
    ConfigError,
    ReplicaExhaustedError,
    ServiceError,
)
from repro.fabric.resources import total as total_resources


@dataclass
class ReplicaStats:
    """Counters for one replica set's failure handling."""

    failures: int = 0
    failovers: int = 0
    divergences: int = 0
    repairs: int = 0
    repairs_failed: int = 0


class ReplicaSet:
    """``R`` replica sessions behind the single-session surface.

    Conforms to :class:`repro.core.CamBackend`, so a replica set can
    stand wherever a single engine session does (notably as one shard
    of a :class:`~repro.service.ShardedCam`).
    """

    def __init__(
        self,
        replicas: Sequence,
        *,
        name: str = "replica_set",
        beat_every: int = 256,
        catchup_limit: int = 1024,
    ) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ConfigError("a replica set needs at least one replica")
        if beat_every < 0:
            raise ConfigError(
                f"beat_every must be >= 0 (0 disables beats), got {beat_every}"
            )
        if catchup_limit < 0:
            raise ConfigError(
                f"catchup_limit must be >= 0, got {catchup_limit}"
            )
        capacity = getattr(replicas[0], "capacity", None)
        for index, replica in enumerate(replicas[1:], start=1):
            if getattr(replica, "capacity", None) != capacity:
                raise ConfigError(
                    f"{name}: replica {index} capacity "
                    f"{getattr(replica, 'capacity', None)} != replica 0 "
                    f"capacity {capacity}; replicas must be identically "
                    "configured"
                )
        self.replicas: Tuple = tuple(replicas)
        self.name = name
        self.beat_every = beat_every
        self.catchup_limit = catchup_limit
        self.stats = ReplicaStats()
        self._preferred = 0
        self._failed: Dict[int, str] = {}
        #: replica -> catch-up log of writes admitted during its
        #: rebuild; ``None`` marks an overflowed (aborted) log.
        self._rebuilding: Dict[int, Optional[List[tuple]]] = {}
        self._rebuild_src: Dict[int, object] = {}
        self._ops_since_beat = 0
        self.last_update_stats = None
        self.last_search_stats = None

    # ------------------------------------------------------------------
    # health bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def failed_replicas(self) -> Tuple[int, ...]:
        """Replicas currently fenced off (failed or mid-rebuild)."""
        return tuple(sorted(set(self._failed) | set(self._rebuilding)))

    @property
    def preferred(self) -> int:
        return self._preferred

    def set_preferred(self, index: int) -> None:
        if not 0 <= index < self.num_replicas:
            raise ConfigError(
                f"{self.name}: replica {index} out of range "
                f"(0..{self.num_replicas - 1})"
            )
        self._preferred = index

    def replica_healthy(self, index: int) -> bool:
        return index not in self._failed and index not in self._rebuilding

    def _healthy_indexes(self) -> List[int]:
        return [i for i in range(self.num_replicas) if self.replica_healthy(i)]

    def _serving_index(self) -> int:
        if self.replica_healthy(self._preferred):
            return self._preferred
        for index in range(self.num_replicas):
            if self.replica_healthy(index):
                return index
        raise ReplicaExhaustedError(
            f"{self.name}: no healthy replica "
            f"(failed: {dict(self._failed)})"
        )

    def _mark_failed(self, index: int, reason: str) -> None:
        if index in self._failed:
            return
        self._failed[index] = reason
        self.stats.failures += 1
        obs.inc("svc_replica_failures_total",
                help="replica sessions fenced off after faults",
                set=self.name)
        obs.set_gauge("svc_replicas_healthy", len(self._healthy_indexes()),
                      help="healthy replicas per set", set=self.name)

    # ------------------------------------------------------------------
    # reads: preferred replica, failover on fault
    # ------------------------------------------------------------------
    def _read(self, op, fn):
        while True:
            index = self._serving_index()
            session = self.replicas[index]
            try:
                result = fn(session)
            except CLIENT_ERRORS:
                raise
            except Exception as exc:  # replica fault: fail over
                self._mark_failed(index, f"{type(exc).__name__}: {exc}")
                self.stats.failovers += 1
                obs.inc("svc_replica_failovers_total",
                        help="reads re-served by a peer after a fault",
                        set=self.name, op=op)
                continue
            if op == "search":
                self.last_search_stats = getattr(
                    session, "last_search_stats", None
                )
            return result

    def search(self, keys, groups=None):
        return self._read("search", lambda s: s.search(keys, groups=groups))

    def search_one(self, key, group=None):
        groups = None if group is None else [group]
        return self.search([key], groups=groups)[0]

    def contains(self, key) -> bool:
        return self.search_one(key).hit

    def stored_entries(self, group: int = 0):
        return self._read("stored_entries",
                          lambda s: s.stored_entries(group))

    def snapshot(self):
        """A healthy replica's snapshot (writes keep them identical)."""
        return self._read("snapshot", lambda s: s.snapshot())

    # ------------------------------------------------------------------
    # writes: fan out to every healthy replica
    # ------------------------------------------------------------------
    def _write(self, op, fn, log_entry):
        healthy = self._healthy_indexes()
        if not healthy:
            raise ReplicaExhaustedError(
                f"{self.name}: no healthy replica for {op} "
                f"(failed: {dict(self._failed)})"
            )
        first_result = None
        have_result = False
        client_error: Optional[BaseException] = None
        landed = 0
        for index in healthy:
            session = self.replicas[index]
            try:
                result = fn(session)
            except CLIENT_ERRORS as exc:
                # Deterministic partial landing: every replica takes the
                # same beats before raising, so content stays identical.
                client_error = exc
                landed += 1
                continue
            except Exception as exc:
                self._mark_failed(index, f"{type(exc).__name__}: {exc}")
                continue
            landed += 1
            if not have_result:
                first_result = result
                have_result = True
        if landed == 0:
            raise ReplicaExhaustedError(
                f"{self.name}: every replica faulted during {op} "
                f"(failed: {dict(self._failed)})"
            )
        self._log_write(log_entry)
        self._maybe_beat()
        if client_error is not None:
            raise client_error
        return first_result

    def update(self, words, group=None):
        words = list(words)
        stats = self._write(
            "update",
            lambda s: s.update(words, group=group),
            ("update", words, group),
        )
        self.last_update_stats = stats
        return stats

    def delete(self, key):
        return self._write("delete", lambda s: s.delete(key),
                           ("delete", key))

    def set_groups(self, num_groups: int) -> None:
        self._write("set_groups", lambda s: s.set_groups(num_groups),
                    ("set_groups", num_groups))

    def idle(self, cycles: int = 1) -> None:
        for index in self._healthy_indexes():
            self.replicas[index].idle(cycles)

    def reset(self) -> None:
        """Clear content everywhere -- including failed replicas.

        An empty CAM is trivially consistent, so a failed replica whose
        ``reset`` succeeds is healed on the spot; in-flight rebuilds
        are abandoned (there is nothing left to catch up to).
        """
        errors: Dict[int, BaseException] = {}
        for index, session in enumerate(self.replicas):
            try:
                session.reset()
            except Exception as exc:
                errors[index] = exc
                continue
            self._failed.pop(index, None)
        self._rebuilding.clear()
        self._rebuild_src.clear()
        self._ops_since_beat = 0
        for index, exc in errors.items():
            self._mark_failed(index, f"{type(exc).__name__}: {exc}")
        if not self._healthy_indexes():
            raise ReplicaExhaustedError(
                f"{self.name}: every replica faulted during reset"
            )
        obs.set_gauge("svc_replicas_healthy", len(self._healthy_indexes()),
                      help="healthy replicas per set", set=self.name)

    def restore(self, snapshot) -> None:
        """Restore every replica from one snapshot (heals on success)."""
        errors: Dict[int, BaseException] = {}
        restored = 0
        for index, session in enumerate(self.replicas):
            try:
                session.restore(snapshot)
            except Exception as exc:
                errors[index] = exc
                continue
            self._failed.pop(index, None)
            restored += 1
        self._rebuilding.clear()
        self._rebuild_src.clear()
        self._ops_since_beat = 0
        for index, exc in errors.items():
            self._mark_failed(index, f"{type(exc).__name__}: {exc}")
        if restored == 0:
            raise ReplicaExhaustedError(
                f"{self.name}: every replica faulted during restore"
            )

    # ------------------------------------------------------------------
    # divergence beats
    # ------------------------------------------------------------------
    def _maybe_beat(self) -> None:
        if self.beat_every <= 0:
            return
        self._ops_since_beat += 1
        if self._ops_since_beat < self.beat_every:
            return
        self._ops_since_beat = 0
        self.check_divergence()

    def check_divergence(self) -> List[int]:
        """Hash-compare healthy replicas; fence the disagreeing minority.

        Returns the replica indexes fenced this beat. The majority
        content hash wins; a tie breaks toward the group containing the
        preferred replica, then toward the lowest replica index.
        """
        healthy = self._healthy_indexes()
        if len(healthy) < 2:
            return []
        by_hash: Dict[str, List[int]] = {}
        for index in healthy:
            try:
                digest = self.replicas[index].snapshot().content_hash()
            except Exception as exc:
                self._mark_failed(index, f"{type(exc).__name__}: {exc}")
                continue
            by_hash.setdefault(digest, []).append(index)
        if len(by_hash) <= 1:
            return []
        winner = max(
            by_hash.values(),
            key=lambda members: (len(members),
                                 self._preferred in members,
                                 -members[0]),
        )
        fenced = []
        for members in by_hash.values():
            if members is winner:
                continue
            for index in members:
                self._mark_failed(index, "content divergence (hash beat)")
                self.stats.divergences += 1
                obs.inc("svc_replica_divergence_total",
                        help="replicas fenced by content-hash beats",
                        set=self.name)
                fenced.append(index)
        return sorted(fenced)

    # ------------------------------------------------------------------
    # live recovery
    # ------------------------------------------------------------------
    def _log_write(self, entry: tuple) -> None:
        for index, log in self._rebuilding.items():
            if log is None:
                continue
            if len(log) >= self.catchup_limit:
                self._rebuilding[index] = None  # overflow: abort
                continue
            log.append(entry)

    def begin_rebuild(self, index: int) -> None:
        """Start rebuilding a failed replica from a healthy donor.

        Captures the donor snapshot now and opens the catch-up log;
        writes admitted between ``begin`` and ``finish`` are recorded
        and replayed on top of the restored snapshot.
        """
        if not 0 <= index < self.num_replicas:
            raise ConfigError(
                f"{self.name}: replica {index} out of range "
                f"(0..{self.num_replicas - 1})"
            )
        if self.replica_healthy(index):
            raise ServiceError(
                f"{self.name}: replica {index} is healthy; nothing to rebuild"
            )
        if index in self._rebuilding:
            raise ServiceError(
                f"{self.name}: replica {index} rebuild already in progress"
            )
        self._rebuild_src[index] = self.snapshot()  # raises if no donor
        self._rebuilding[index] = []

    def finish_rebuild(self, index: int) -> int:
        """Restore the donor snapshot, replay the catch-up log, reinstate.

        Returns the number of replayed writes. Raises
        :class:`~repro.errors.ServiceError` if the log overflowed
        (``catchup_limit``) -- the rebuild must be restarted -- and
        re-fences the replica if the restore/replay itself faults.
        """
        if index not in self._rebuild_src:
            raise ServiceError(
                f"{self.name}: no rebuild in progress for replica {index}"
            )
        log = self._rebuilding.pop(index)
        src = self._rebuild_src.pop(index)
        if log is None:
            self.stats.repairs_failed += 1
            raise ServiceError(
                f"{self.name}: replica {index} catch-up log overflowed "
                f"({self.catchup_limit} writes); restart the rebuild"
            )
        session = self.replicas[index]
        try:
            session.restore(src)
            for entry in log:
                op, args = entry[0], entry[1:]
                try:
                    if op == "update":
                        session.update(args[0], group=args[1])
                    elif op == "delete":
                        session.delete(args[0])
                    elif op == "set_groups":
                        session.set_groups(args[0])
                except CLIENT_ERRORS:
                    # The live replicas landed the same deterministic
                    # partial result when this write was admitted.
                    pass
        except Exception as exc:
            self.stats.repairs_failed += 1
            self._failed[index] = (
                f"rebuild failed: {type(exc).__name__}: {exc}"
            )
            raise ServiceError(
                f"{self.name}: replica {index} rebuild failed: {exc}"
            ) from exc
        self._failed.pop(index, None)
        self.stats.repairs += 1
        obs.inc("svc_replica_repairs_total",
                help="replicas rebuilt and reinstated", set=self.name)
        obs.set_gauge("svc_replicas_healthy", len(self._healthy_indexes()),
                      help="healthy replicas per set", set=self.name)
        return len(log)

    def rebuild(self, index: int) -> int:
        """Synchronous begin + finish (no writes can interleave)."""
        self.begin_rebuild(index)
        return self.finish_rebuild(index)

    def repair(self) -> List[int]:
        """Rebuild every failed replica; returns the indexes reinstated.

        A replica whose rebuild is already in progress (``begin_rebuild``
        was called earlier) has its catch-up log drained and is
        reinstated rather than restarted.
        """
        healed = []
        for index in list(self.failed_replicas):
            try:
                if index in self._rebuilding:
                    self.finish_rebuild(index)
                else:
                    self.rebuild(index)
            except ServiceError:
                continue
            healed.append(index)
        return healed

    # ------------------------------------------------------------------
    # session-protocol properties (reported from a healthy replica)
    # ------------------------------------------------------------------
    def _reporter(self):
        try:
            return self.replicas[self._serving_index()]
        except ReplicaExhaustedError:
            return self.replicas[self._preferred]

    @property
    def engine_name(self) -> str:
        base = getattr(self.replicas[0], "engine_name", "?")
        return f"replicated[{self.num_replicas}x{base}]"

    @property
    def cycle(self) -> int:
        """Slowest replica's counter (replicas run in parallel)."""
        return max(replica.cycle for replica in self.replicas)

    @property
    def capacity(self) -> int:
        """One replica's capacity: copies add fault tolerance, not room."""
        return self._reporter().capacity

    @property
    def occupancy(self) -> int:
        return self._reporter().occupancy

    @property
    def num_groups(self) -> int:
        return self._reporter().num_groups

    @property
    def search_latency(self) -> int:
        return self._reporter().search_latency

    @property
    def update_latency(self) -> int:
        return self._reporter().update_latency

    @property
    def words_per_beat(self) -> int:
        return self._reporter().words_per_beat

    @property
    def trace(self):
        return None

    def resources(self):
        """True hardware cost: R copies of the unit."""
        return total_resources(r.resources() for r in self.replicas)


__all__ = ["ReplicaSet", "ReplicaStats"]
