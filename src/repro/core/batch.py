"""Vectorized batch execution engine for the CAM unit.

The cycle-accurate :class:`repro.core.CamSession` drives every beat
through the event simulator, which is exact but spends nearly all of
its wall-clock time in Python component dispatch. For bulk workloads
(the Table IX triangle-counting runs, the ablation sweeps, large joins)
this module provides :class:`BatchSession`: the same transaction API,
the same results bit for bit, and the same reported cycle counts --
but executed directly against NumPy arrays of stored ``(value, mask)``
pairs, with the cycle accounting computed analytically from the
pipeline structure instead of simulated.

A group whose live entries all share one care mask (every binary CAM)
answers a search by binary search in a sorted-value index, rebuilt
lazily after any write; a mixed-care group (ternary or range) scans the
full ``(keys, entries)`` XOR matrix. Both give the same matches, sorted
by key, then address.

The analytic model is *derived*, not guessed: every formula below
mirrors a structural fact of the unit pipeline
(:mod:`repro.core.routing`, :mod:`repro.core.block`) and is enforced
against the simulator by the differential test suite
(``tests/core/test_batch_equivalence.py``) and by the audit engine:

- an update of ``B`` beats costs ``B + update_latency - 1`` cycles
  (one issue slot per beat at initiation interval 1, plus the pipeline
  drain of the final beat);
- a search of ``B`` beats costs ``B + search_latency - 1`` cycles
  (same shape; the latency term is 7 or 8 depending on the encoder
  output buffer);
- a delete-by-content beat costs ``search_latency`` cycles (it rides
  the search path);
- ``reset`` and ``set_groups`` cost ``update_latency + 2`` cycles
  (the fixed flush window :class:`CamSession` waits out).

Three engines are exposed through :func:`open_session`:

- ``"cycle"``  -- the register-accurate simulator (default),
- ``"batch"``  -- this module's vectorized fast path,
- ``"audit"``  -- the fast path *plus* a differential audit: a seeded
  sample of reset-bounded episodes is replayed, operation by
  operation, through a shadow cycle-accurate session, and every
  result and cycle count is asserted bit-exact. Running a benchmark
  under ``engine="audit"`` turns it into a continuous equivalence
  test of the batch engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import UnitConfig
from repro.core.session import (
    CamSession,
    RawWord,
    SearchStats,
    UpdateStats,
    _SessionBase,
)
from repro.core.types import SearchBatch, SearchResult, key_array
from repro.dsp import ALL_ONES
from repro.errors import (
    AuditError,
    CapacityError,
    ConfigError,
    RoutingError,
)

class _GroupStore:
    """Content of one logical CAM group as flat NumPy arrays.

    Addresses are insertion order: the hardware's round-robin block
    fill advances to the next block only when the current one is full,
    so ``block_slot * block_size + cell`` equals the global insertion
    index. Deleted entries become dead slots (``live`` False); the fill
    pointer never rewinds, mirroring the block's invalidate-by-content
    behaviour.

    Every write goes through :meth:`append`, :meth:`kill` or
    :meth:`clear`, and each drops the sorted-value index that
    :meth:`matches` builds on the next search.
    """

    __slots__ = ("capacity", "fill", "values", "cares", "live", "_index")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.fill = 0
        self.values = np.zeros(capacity, dtype=np.int64)
        self.cares = np.zeros(capacity, dtype=np.int64)
        self.live = np.zeros(capacity, dtype=bool)
        self._index = None

    def append(self, rows: np.ndarray) -> None:
        """Store ``(value, care)`` rows from the fill pointer on."""
        stop = self.fill + len(rows)
        self.values[self.fill:stop] = rows[:, 0]
        self.cares[self.fill:stop] = rows[:, 1]
        self.live[self.fill:stop] = True
        self.fill = stop
        self._index = None

    def kill(self, where) -> None:
        """Invalidate the entries at addresses ``where``."""
        self.live[where] = False
        self._index = None

    def clear(self) -> None:
        self.fill = 0
        self.live[:] = False
        self._index = None

    def _sorted_index(self) -> tuple:
        """``(care, sorted masked values, their addresses)`` over the
        live entries when they all share one care mask (every binary
        CAM), else ``()``. Equal values keep ascending addresses."""
        if self._index is None:
            live = np.flatnonzero(self.live[:self.fill])
            cares = self.cares[live]
            if cares.size and (cares != cares[0]).any():
                self._index = ()  # mixed cares: only the XOR scan fits
            else:
                care = int(cares[0]) if cares.size else ALL_ONES
                masked = self.values[live] & care
                order = np.argsort(masked, kind="stable")
                self._index = (care, masked[order], live[order])
        return self._index

    def matches(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(key index, address) of every match, sorted by key, then
        address.

        A uniform-care store answers by binary search: each key's run
        of equal values in the sorted index is its matches, already in
        address order. A mixed-care (ternary or range) store scans the
        full ``(keys, fill)`` XOR matrix in one flat pass.
        """
        index = self._sorted_index()
        if not index:
            n = self.fill
            diff = (keys[:, None] ^ self.values[None, :n]) & self.cares[None, :n]
            flat = np.flatnonzero((diff == 0) & self.live[None, :n])
            return np.divmod(flat, n)
        care, values, addresses = index
        probes = keys & care
        first = values.searchsorted(probes)
        counts = values.searchsorted(probes, "right") - first
        rows = counts.nonzero()[0]
        if rows.size == counts.sum():  # no key matches twice
            return rows, addresses[first[rows]]
        rows = np.arange(keys.size).repeat(counts)
        # the j-th match overall sits at its run's first slot plus its
        # rank inside the run
        skew = (first - counts.cumsum() + counts).repeat(counts)
        return rows, addresses[skew + np.arange(rows.size)]


class BatchSession(_SessionBase):
    """Vectorized sibling of the cycle-accurate :class:`CamSession`.

    Exposes the identical transaction API (both engines conform to the
    :class:`repro.core.CamBackend` protocol) and produces bit-identical
    :class:`SearchResult` values and identical cycle accounting, but
    executes updates/searches/deletes as NumPy array operations. No
    simulator is constructed; ``cycle`` is an analytic counter.
    """

    engine_name = "batch"

    def __init__(
        self,
        config: UnitConfig,
        trace: bool = False,
        name: str = "cam_unit",
    ) -> None:
        if trace:
            raise ConfigError(
                "waveform tracing needs the cycle-accurate engine; "
                "open it with open_session(config, 'cycle', trace=True)"
            )
        super().__init__(config, name)
        self._cycle = 0
        self._num_groups = config.default_groups
        self._init_stores()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _init_stores(self) -> None:
        capacity = self.config.group_capacity(self._num_groups)
        if self.config.replicate_updates:
            # Every group holds the same content: share one store.
            shared = _GroupStore(capacity)
            self._stores = [shared] * self._num_groups
        else:
            self._stores = [_GroupStore(capacity) for _ in range(self._num_groups)]

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def num_groups(self) -> int:
        return self._num_groups

    @property
    def occupancy(self) -> int:
        return self._stores[0].fill

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def _update_target(self, group: Optional[int]) -> int:
        """The store an update writes (the shared one when replicated)."""
        if self.config.replicate_updates:
            if group is not None:
                raise RoutingError(
                    f"{self.name}: replicated mode updates every group; "
                    "do not pass a group id"
                )
            return 0
        if group is None:
            raise RoutingError(
                f"{self.name}: independent mode requires a target group"
            )
        self._check_group(group)
        return group

    def _update(self, rows: np.ndarray, group: Optional[int]) -> UpdateStats:
        index = self._update_target(group)
        store = self._stores[index]
        count = len(rows)
        per_beat = self.config.words_per_beat
        beats = -(-count // per_beat)
        capacity = self.capacity
        if store.fill + count > capacity:
            # Mirror the cycle engine's partial-failure semantics: full
            # beats that fit are issued (one cycle each) before the
            # overflowing beat raises at issue time.
            fitting_beats = (capacity - store.fill) // per_beat
            fitting_words = fitting_beats * per_beat
            store.append(rows[:fitting_words])
            self._cycle += fitting_beats
            overflow = min(per_beat, count - fitting_words)
            raise CapacityError(
                f"{self.name}: group {index} cannot take {overflow} more "
                f"words ({store.fill}/{capacity} used)"
            )
        with obs.span("unit.update", beats=beats):
            store.append(rows)
        cycles = beats + self.config.update_latency - 1
        self._cycle += cycles
        return UpdateStats(words=count, beats=beats, cycles=cycles)

    def _validate_groups(self, groups: Sequence[int]) -> List[int]:
        group_ids = [int(g) for g in groups]
        if len(group_ids) > self._num_groups:
            raise RoutingError(
                f"{self.name}: {len(group_ids)} concurrent queries exceed "
                f"the current group count M={self._num_groups}"
            )
        if len(set(group_ids)) != len(group_ids):
            raise RoutingError(f"{self.name}: each query needs a distinct group")
        for g in group_ids:
            self._check_group(g)
        return group_ids

    def _search(
        self, keys: np.ndarray, groups: Optional[Sequence[int]]
    ) -> Tuple[SearchBatch, SearchStats]:
        if groups is None:
            group_ids = list(range(self._num_groups))
        else:
            group_ids = self._validate_groups(groups)
        per_beat = len(group_ids)
        masked = keys & ALL_ONES
        encoding = self.config.block.encoding

        with obs.span("unit.search", keys=len(keys)):
            if self.config.replicate_updates:
                # Every group answers from the same content: one store.
                rows, cols = self._stores[0].matches(masked)
                batch = SearchBatch(keys, rows, cols, encoding)
            else:
                # Key i rides group group_ids[i % per_beat].
                matches = []
                for offset, g in enumerate(group_ids):
                    picks = np.arange(offset, len(keys), per_beat)
                    rows, cols = self._stores[g].matches(masked[picks])
                    matches.append((picks[rows], cols))
                batch = SearchBatch.gather(keys, matches, encoding,
                                           disjoint=True)

        beats = -(-len(keys) // per_beat)
        cycles = beats + self.config.search_latency - 1
        self._cycle += cycles
        return batch, SearchStats(keys=len(keys), beats=beats, cycles=cycles)

    def _delete(self, key: int) -> SearchResult:
        masked = np.asarray([key], dtype=np.int64) & ALL_ONES
        result = None
        for store in self._distinct_stores():
            rows, cols = store.matches(masked)
            if result is None:  # group 0 answers, like the unit
                result = SearchBatch([key], rows, cols,
                                     self.config.block.encoding)[0]
            store.kill(cols)
        self._cycle += self.config.search_latency
        return result

    # ------------------------------------------------------------------
    def _set_groups(self, num_groups: int) -> None:
        if num_groups < 1 or self.config.num_blocks % num_groups:
            raise RoutingError(
                f"{self.name}: group count {num_groups} must divide "
                f"{self.config.num_blocks} blocks"
            )
        self._num_groups = num_groups
        self._init_stores()
        self._cycle += self.config.update_latency + 2

    def _reset(self) -> None:
        for store in self._distinct_stores():
            store.clear()
        self._cycle += self.config.update_latency + 2

    def idle(self, cycles: int = 1) -> None:
        self._cycle += cycles

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def _distinct_stores(self) -> List[_GroupStore]:
        return list({id(store): store for store in self._stores}.values())

    def _group_arrays(self, group: int):
        store = self._stores[group]
        fill = store.fill
        return store.values[:fill], store.cares[:fill], store.live[:fill]

    def _invalidate(self, group: int, addresses: np.ndarray) -> None:
        self._stores[group].kill(addresses)


# ----------------------------------------------------------------------
# differential audit engine
# ----------------------------------------------------------------------
@dataclass
class AuditDivergence:
    """One observed disagreement between the batch and cycle engines."""

    operation: str
    detail: str


@dataclass
class AuditReport:
    """Running tally of what the audit engine has proven equivalent."""

    episodes: int = 0
    episodes_audited: int = 0
    ops_audited: int = 0
    ops_fast_only: int = 0
    divergences: List[AuditDivergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "PASS" if self.passed else (
            f"FAIL ({len(self.divergences)} divergences, first: "
            f"{self.divergences[0].operation}: {self.divergences[0].detail})"
        )
        return (
            f"{verdict}: {self.ops_audited} ops audited bit-exact, "
            f"{self.ops_fast_only} fast-only, "
            f"{self.episodes_audited}/{self.episodes} episodes sampled"
        )


class AuditSession(BatchSession):
    """The batch fast path with continuous differential verification.

    A seeded coin decides, at every content flush (construction,
    :meth:`reset`, :meth:`set_groups`, :meth:`restore`), whether the
    upcoming *episode* is audited. Audited episodes replay every
    operation through a shadow cycle-accurate :class:`CamSession` and
    assert bit-exact result agreement plus identical per-operation
    cycle counts; unaudited episodes run at full batch speed. Flushes
    always run on both halves and their cycle costs are always
    compared. ``audit_sample=1.0`` verifies everything (and is exactly
    as slow as the cycle engine); the default samples a fraction while
    keeping the workload itself on the fast path.
    """

    engine_name = "audit"

    def __init__(
        self,
        config: UnitConfig,
        trace: bool = False,
        name: str = "cam_unit",
        audit_sample: float = 0.1,
        audit_seed: int = 0,
        strict: bool = True,
    ) -> None:
        super().__init__(config, trace=trace, name=name)
        if not 0.0 <= audit_sample <= 1.0:
            raise ConfigError(
                f"audit_sample must be in [0, 1], got {audit_sample}"
            )
        self.audit_sample = audit_sample
        self.strict = strict
        self._audit_rng = np.random.default_rng(audit_seed)
        self.shadow = CamSession(config, name=f"{name}.shadow")
        self.audit_report = AuditReport()
        self._begin_episode()

    # ------------------------------------------------------------------
    def _begin_episode(self) -> None:
        self.audit_report.episodes += 1
        self._auditing = bool(self._audit_rng.random() < self.audit_sample)
        if self._auditing:
            self.audit_report.episodes_audited += 1

    def _tally(self) -> bool:
        """Count one operation; True when the shadow must replay it."""
        if self._auditing:
            self.audit_report.ops_audited += 1
            obs.inc("cam_audit_ops_total",
                    help="operations seen by the audit engine",
                    mode="audited")
        else:
            self.audit_report.ops_fast_only += 1
            obs.inc("cam_audit_ops_total", mode="fast_only")
        return self._auditing

    def _diverge(self, operation: str, detail: str) -> None:
        self.audit_report.divergences.append(AuditDivergence(operation, detail))
        obs.inc("cam_audit_divergences_total",
                help="batch/cycle disagreements caught by the audit engine",
                op=operation)
        if self.strict:
            raise AuditError(
                f"{self.name}: batch/cycle divergence in {operation}: {detail}"
            )

    def _compare_costs(self, operation: str, fast, slow) -> None:
        if fast != slow:
            self._diverge(operation, f"batch {fast} / cycle {slow}")

    def _compare_results(
        self,
        operation: str,
        fast: Sequence[SearchResult],
        slow: Sequence[SearchResult],
    ) -> None:
        if len(fast) != len(slow):
            self._diverge(operation, f"{len(fast)} vs {len(slow)} results")
            return
        for index, (f, s) in enumerate(zip(fast, slow)):
            if f != s:
                self._diverge(
                    operation,
                    f"result {index}: batch hit={f.hit} addr={f.address} "
                    f"vec={f.match_vector:#x} / cycle hit={s.hit} "
                    f"addr={s.address} vec={s.match_vector:#x}",
                )

    def _flush(self, operation: str, *args) -> None:
        """Run one content flush on both halves, compare its cycle
        cost, and start a new episode. The shadow always tracks flushes
        so a later audited episode starts from the same state."""
        before, shadow_before = self._cycle, self.shadow.cycle
        getattr(super(), operation)(*args)
        getattr(self.shadow, operation)(*args)
        self._compare_costs(operation, f"{self._cycle - before} cycles",
                            f"{self.shadow.cycle - shadow_before} cycles")
        self._begin_episode()

    # ------------------------------------------------------------------
    def update(
        self, words: Sequence[RawWord], group: Optional[int] = None
    ) -> UpdateStats:
        rows = self._rows(words)
        try:
            stats = super().update(rows, group=group)
        except Exception:
            # The shadow never saw the failed beat; stop auditing this
            # episode rather than reporting a false divergence later.
            self._auditing = False
            raise
        if self._tally():
            self._compare_costs("update", stats,
                                self.shadow.update(rows, group=group))
        return stats

    def search(
        self,
        keys: Sequence[int],
        groups: Optional[Sequence[int]] = None,
    ) -> SearchBatch:
        keys = key_array(keys)
        results = super().search(keys, groups=groups)
        if self._tally():
            self._compare_results("search", results,
                                  self.shadow.search(keys, groups=groups))
            self._compare_costs("search", self.last_search_stats,
                                self.shadow.last_search_stats)
        return results

    def delete(self, key: int) -> SearchResult:
        before = self._cycle
        result = super().delete(key)
        if self._tally():
            shadow_before = self.shadow.cycle
            self._compare_results("delete", [result],
                                  [self.shadow.delete(key)])
            self._compare_costs(
                "delete", f"{self._cycle - before} cycles",
                f"{self.shadow.cycle - shadow_before} cycles",
            )
        return result

    def set_groups(self, num_groups: int) -> None:
        self._flush("set_groups", num_groups)

    def reset(self) -> None:
        self._flush("reset")

    def restore(self, snapshot) -> None:
        self._flush("restore", snapshot)

    def idle(self, cycles: int = 1) -> None:
        super().idle(cycles)
        if self._auditing:
            self.shadow.idle(cycles)


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------
ENGINES = {
    "cycle": CamSession,
    "batch": BatchSession,
    "audit": AuditSession,
}


def open_session(
    config: UnitConfig,
    engine: str = "cycle",
    *,
    shards: int = 1,
    policy="hash",
    replicas: int = 1,
    **kwargs,
):
    """Construct a session on the requested execution engine.

    The one front door for every execution backend (re-exported as
    :func:`repro.open_session`):

    - ``engine`` picks the per-unit backend: ``"cycle"`` (register
      accurate), ``"batch"`` (NumPy vectorized) or ``"audit"``
      (vectorized with a differential cycle-accurate shadow);
    - ``shards > 1`` returns a
      :class:`~repro.service.sharded.ShardedCam` that partitions the
      key space across that many independent ``engine`` sessions
      (``config`` describes one shard) under the given shard
      ``policy`` -- a name from
      :data:`repro.service.sharding.POLICIES` or a
      :class:`~repro.service.sharding.ShardPolicy` instance. With the
      default ``shards=1`` the ``policy`` argument is ignored;
    - ``replicas > 1`` backs every shard with that many replica
      sessions behind a :class:`~repro.service.replica.ReplicaSet`
      (fan-out writes, failover reads, divergence beats, live
      recovery); replication implies the sharded facade, so
      ``replicas=2`` with the default ``shards=1`` returns a
      one-shard :class:`~repro.service.sharded.ShardedCam`.

    Remaining ``kwargs`` are forwarded to the backend constructor
    (``trace`` and ``name`` everywhere; ``audit_sample`` /
    ``audit_seed`` / ``strict`` for the audit engine).
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    if shards > 1 or replicas > 1:
        from repro.service.sharded import ShardedCam

        return ShardedCam(config, shards=shards, policy=policy,
                          engine=engine, replicas=replicas, **kwargs)
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown execution engine {engine!r}; pick one of "
            f"{sorted(ENGINES)}"
        )
    return ENGINES[engine](config, **kwargs)
