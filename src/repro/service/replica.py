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
- **divergence beats**: every :data:`BEAT_EVERY` write operations the set
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
  <repro.service.scheduler.CamService.repair_shard>`; a reset or a
  restore heals every replica it succeeds on.

Every shard of a :class:`~repro.service.sharded.ShardedCam` is a
replica set, ``R = 1`` included; the shard has failed exactly when its
set has no healthy replica. Only
:class:`~repro.errors.ReplicaExhaustedError` escapes to the sharded
layer (when *no* replica can serve), chained to the fault that
exhausted the set. Client errors (capacity/config/routing/mask) and
:class:`~repro.errors.SnapshotError` propagate unchanged -- they leave
every replica in the same deterministic state, so they are not faults.
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
    SnapshotError,
)
from repro.fabric.resources import total as total_resources

#: Write operations between two divergence beats (0 disables beats).
BEAT_EVERY = 256
#: Writes a rebuild's catch-up log holds before the rebuild aborts.
CATCHUP_LIMIT = 1024


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
    ) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ConfigError("a replica set needs at least one replica")
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
        self.stats = ReplicaStats()
        self._preferred = 0
        self._failed: Dict[int, str] = {}
        #: replica -> catch-up log of the ``(op, args, kwargs)`` writes
        #: admitted during its rebuild; ``None`` marks an overflowed
        #: (aborted) log.
        self._rebuilding: Dict[int, Optional[List[tuple]]] = {}
        self._rebuild_src: Dict[int, object] = {}
        self._refresh()
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
        self._refresh()

    def replica_healthy(self, index: int) -> bool:
        return index not in self._failed and index not in self._rebuilding

    def _refresh(self) -> None:
        """After any change of health or preference: the healthy
        replicas writes fan out to, and the one that serves reads and
        the session properties (the preferred one unless another is
        healthy and it is not). Publishes the healthy count."""
        self._healthy = tuple(i for i in range(self.num_replicas)
                              if self.replica_healthy(i))
        obs.set_gauge("svc_replicas_healthy", len(self._healthy),
                      help="healthy replicas per set", set=self.name)
        keep = self._preferred in self._healthy or not self._healthy
        self._serving = self._preferred if keep else self._healthy[0]
        self._reporter = self.replicas[self._serving]

    def _mark_failed(self, index: int, reason: str) -> None:
        if index in self._failed:
            return
        self._failed[index] = reason
        self._refresh()
        self.stats.failures += 1
        obs.inc("svc_replica_failures_total",
                help="replica sessions fenced off after faults",
                set=self.name)

    # ------------------------------------------------------------------
    # reads: preferred replica, failover on fault
    # ------------------------------------------------------------------
    def _read(self, op, fn):
        fault = None
        while True:
            if not self._healthy:
                raise ReplicaExhaustedError(
                    f"{self.name}: no healthy replica "
                    f"(failed: {dict(self._failed)})"
                ) from fault
            index = self._serving
            session = self.replicas[index]
            try:
                result = fn(session)
            except CLIENT_ERRORS:
                raise
            except Exception as exc:  # replica fault: fail over
                fault = exc
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

    def snapshot(self):
        """A healthy replica's snapshot (writes keep them identical)."""
        return self._read("snapshot", lambda s: s.snapshot())

    # ------------------------------------------------------------------
    # writes: fan out to every healthy replica
    # ------------------------------------------------------------------
    def _write(self, op, *args, **kwargs):
        """Call session method ``op`` on every healthy replica and log
        the write for in-flight rebuilds; returns the first result."""
        if not self._healthy:
            raise ReplicaExhaustedError(
                f"{self.name}: no healthy replica for {op} "
                f"(failed: {dict(self._failed)})"
            )
        results = []
        client_error: Optional[BaseException] = None
        fault: Optional[BaseException] = None
        for index in self._healthy:
            try:
                results.append(getattr(self.replicas[index], op)(*args,
                                                                 **kwargs))
            except CLIENT_ERRORS as exc:
                # Deterministic partial landing: every replica takes the
                # same beats before raising, so content stays identical.
                client_error = exc
            except Exception as exc:
                fault = exc
                self._mark_failed(index, f"{type(exc).__name__}: {exc}")
        if not results and client_error is None:
            raise ReplicaExhaustedError(
                f"{self.name}: every replica faulted during {op} "
                f"(failed: {dict(self._failed)})"
            ) from fault
        self._log_write((op, args, kwargs))
        self._maybe_beat()
        if client_error is not None:
            raise client_error
        return results[0]

    def update(self, words, group=None):
        stats = self._write("update", words, group=group)
        self.last_update_stats = stats
        return stats

    def delete(self, key):
        return self._write("delete", key)

    def set_groups(self, num_groups: int) -> None:
        self._write("set_groups", num_groups)

    def idle(self, cycles: int = 1) -> None:
        for index in self._healthy:
            self.replicas[index].idle(cycles)

    def reset(self) -> None:
        """Clear content everywhere -- including failed replicas.

        An empty CAM is trivially consistent, so a failed replica whose
        ``reset`` succeeds is healed on the spot.
        """
        self._replace_content("reset")

    def restore(self, snapshot) -> None:
        """Restore every replica from one snapshot (heals on success).

        An incompatible snapshot (:class:`~repro.errors.SnapshotError`)
        or a client error is not a fault: the replicas are identical,
        so the first one raises before any of them has changed, and
        nothing is fenced.
        """
        self._replace_content("restore", snapshot)

    def _replace_content(self, op, *args) -> None:
        """Call session method ``op`` on every replica, failed ones
        included. Each replica it succeeds on holds known content again
        and is healed; in-flight rebuilds are abandoned (their donor
        content is gone)."""
        errors: Dict[int, BaseException] = {}
        for index, session in enumerate(self.replicas):
            try:
                getattr(session, op)(*args)
            except CLIENT_ERRORS + (SnapshotError,):
                raise
            except Exception as exc:
                errors[index] = exc
                continue
            self._failed.pop(index, None)
        self._rebuilding.clear()
        self._rebuild_src.clear()
        self._refresh()
        self._ops_since_beat = 0
        fault = None
        for index, fault in errors.items():
            self._mark_failed(index, f"{type(fault).__name__}: {fault}")
        if len(errors) == self.num_replicas:
            raise ReplicaExhaustedError(
                f"{self.name}: every replica faulted during {op}"
            ) from fault

    # ------------------------------------------------------------------
    # divergence beats
    # ------------------------------------------------------------------
    def _maybe_beat(self) -> None:
        if BEAT_EVERY <= 0:
            return
        self._ops_since_beat += 1
        if self._ops_since_beat < BEAT_EVERY:
            return
        self._ops_since_beat = 0
        self.check_divergence()

    def check_divergence(self) -> List[int]:
        """Hash-compare healthy replicas; fence the disagreeing minority.

        Returns the replica indexes fenced this beat. The majority
        content hash wins; a tie breaks toward the group containing the
        preferred replica, then toward the lowest replica index.
        """
        if len(self._healthy) < 2:
            return []
        by_hash: Dict[str, List[int]] = {}
        for index in self._healthy:
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
            if len(log) >= CATCHUP_LIMIT:
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
        self._refresh()

    def finish_rebuild(self, index: int) -> int:
        """Restore the donor snapshot, replay the catch-up log, reinstate.

        Returns the number of replayed writes. Raises
        :class:`~repro.errors.ServiceError` if the log overflowed
        (:data:`CATCHUP_LIMIT`) -- the rebuild must be restarted -- and
        re-fences the replica if the restore/replay itself faults.
        """
        if index not in self._rebuild_src:
            raise ServiceError(
                f"{self.name}: no rebuild in progress for replica {index}"
            )
        log = self._rebuilding.pop(index)  # still fenced: it is failed
        src = self._rebuild_src.pop(index)
        if log is None:
            self.stats.repairs_failed += 1
            raise ServiceError(
                f"{self.name}: replica {index} catch-up log overflowed "
                f"({CATCHUP_LIMIT} writes); restart the rebuild"
            )
        session = self.replicas[index]
        try:
            session.restore(src)
            for op, args, kwargs in log:
                try:
                    getattr(session, op)(*args, **kwargs)
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
        self._refresh()
        self.stats.repairs += 1
        obs.inc("svc_replica_repairs_total",
                help="replicas rebuilt and reinstated", set=self.name)
        return len(log)

    # ------------------------------------------------------------------
    # session-protocol properties (reported from a healthy replica)
    # ------------------------------------------------------------------
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
        return self._reporter.capacity

    @property
    def occupancy(self) -> int:
        return self._reporter.occupancy

    @property
    def num_groups(self) -> int:
        return self._reporter.num_groups

    @property
    def search_latency(self) -> int:
        return self._reporter.search_latency

    @property
    def update_latency(self) -> int:
        return self._reporter.update_latency

    @property
    def words_per_beat(self) -> int:
        return self._reporter.words_per_beat

    @property
    def trace(self):
        return None

    def resources(self):
        """True hardware cost: R copies of the unit."""
        return total_resources(r.resources() for r in self.replicas)


__all__ = ["ReplicaSet", "ReplicaStats"]
