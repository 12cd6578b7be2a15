"""Transaction-level driver for a CAM unit.

:class:`CamSession` owns a :class:`repro.sim.Simulator` and a
:class:`repro.core.CamUnit` and exposes blocking update/search calls
that hide the cycle-level port driving. It is the integration surface
an accelerator kernel would use (the paper's "easy integration"
argument) and what the examples and most tests drive.

The session keeps issuing one beat per cycle, so a batch of keys is
searched at the full pipelined rate; the cycle counter is exposed so
callers can derive latency and throughput from real simulated cycles.

Every execution engine (this cycle engine and the vectorized
:class:`~repro.core.batch.BatchSession`) shares one private base,
``_SessionBase``, that holds the transaction wrappers: spans, timing
and metric publication around each engine's ``_update``/``_search``
primitives, plus word coercion and the single-key conveniences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.config import UnitConfig
from repro.core.mask import CamEntry, entry_rows, entry_views
from repro.core.types import SearchBatch, SearchResult, check_key, key_array
from repro.core.unit import CamUnit
from repro.dsp import ALL_ONES, mask_for
from repro.fabric.area import unit_resources
from repro.errors import ConfigError, RoutingError, SimulationError
from repro.sim import Simulator, Trace

RawWord = Union[int, CamEntry]


@dataclass(frozen=True)
class UpdateStats:
    """Cycle accounting for one :meth:`CamSession.update` call."""

    words: int
    beats: int
    cycles: int


@dataclass(frozen=True)
class SearchStats:
    """Cycle accounting for one :meth:`CamSession.search` call."""

    keys: int
    beats: int
    cycles: int


# ----------------------------------------------------------------------
# telemetry publication (shared by every execution engine)
# ----------------------------------------------------------------------
def publish_update_metrics(session, stats: UpdateStats,
                           wall_s: Optional[float] = None) -> None:
    """Record one update transaction into the global metrics registry."""
    if not obs.enabled():
        return
    engine = session.engine_name
    obs.inc("cam_updates_total", 1,
            help="CAM update transactions", engine=engine)
    obs.inc("cam_update_words_total", stats.words, engine=engine)
    obs.inc("cam_update_beats_total", stats.beats, engine=engine)
    obs.inc("cam_update_cycles_total", stats.cycles, engine=engine)
    obs.observe("cam_update_latency_cycles", stats.cycles,
                help="per-update-call latency in simulated cycles",
                engine=engine)
    obs.set_gauge("cam_occupancy_entries", session.occupancy,
                  help="stored words per logical group", engine=engine)
    if wall_s is not None:
        obs.observe("cam_op_wall_seconds", wall_s,
                    help="host wall-time per CAM transaction",
                    buckets=obs.SECONDS_BUCKETS, op="update", engine=engine)


def publish_search_metrics(session, stats: SearchStats,
                           hits: int,
                           wall_s: Optional[float] = None) -> None:
    """Record one search transaction into the global metrics registry."""
    if not obs.enabled():
        return
    engine = session.engine_name
    obs.inc("cam_searches_total", 1,
            help="CAM search transactions", engine=engine)
    obs.inc("cam_search_keys_total", stats.keys, engine=engine)
    obs.inc("cam_search_beats_total", stats.beats, engine=engine)
    obs.inc("cam_search_cycles_total", stats.cycles, engine=engine)
    obs.inc("cam_search_hits_total", hits,
            help="keys that matched at least one entry", engine=engine)
    obs.observe("cam_search_latency_cycles", stats.cycles,
                help="per-search-call latency in simulated cycles",
                engine=engine)
    if wall_s is not None:
        obs.observe("cam_op_wall_seconds", wall_s,
                    buckets=obs.SECONDS_BUCKETS, op="search", engine=engine)


class _SessionBase:
    """What every execution engine shares (private; construct sessions
    with :func:`repro.open_session`).

    Subclasses provide the engine primitives ``_update``, ``_search``,
    ``_delete``, ``_set_groups``, ``_reset``, ``_invalidate`` and
    ``_group_arrays`` plus the ``cycle``, ``num_groups`` and
    ``occupancy`` views; this base wraps them in the public
    transaction API, so the span/timing/metrics contract and the
    snapshot replay are defined once for every engine.
    """

    engine_name: str
    #: Recorded waveform; only the cycle engine can record one.
    trace: Optional[Trace] = None

    def __init__(self, config: UnitConfig, name: str) -> None:
        self.config = config
        self.name = name
        self.last_update_stats: Optional[UpdateStats] = None
        self.last_search_stats: Optional[SearchStats] = None

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Entries available per logical group."""
        return self.config.group_capacity(self.num_groups)

    @property
    def search_latency(self) -> int:
        """End-to-end unit search latency in cycles."""
        return self.config.search_latency

    @property
    def update_latency(self) -> int:
        """End-to-end unit update latency in cycles."""
        return self.config.update_latency

    @property
    def words_per_beat(self) -> int:
        """Stored words carried per update beat."""
        return self.config.words_per_beat

    def resources(self):
        """Estimated resource vector of the modelled unit."""
        return unit_resources(
            self.config.total_entries,
            block_size=self.config.block.block_size,
            bus_width=self.config.unit_bus_width,
        )

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise RoutingError(
                f"{self.name}: group {group} out of range "
                f"(0..{self.num_groups - 1})"
            )

    def _rows(self, words) -> np.ndarray:
        """``words`` as checked rows (:func:`~repro.core.mask.entry_rows`)."""
        return entry_rows(words, self.config.data_width,
                          self.config.block.cell.cam_type)

    # ------------------------------------------------------------------
    def update(
        self, words: Sequence[RawWord], group: Optional[int] = None
    ) -> UpdateStats:
        """Store ``words``, splitting them into full-bus beats.

        Returns once the final beat has landed, so content is
        searchable when this returns.
        """
        rows = self._rows(words)
        t0 = time.perf_counter() if obs.enabled() else 0.0
        with obs.span("session.update", engine=self.engine_name,
                      words=len(rows)):
            stats = self._update(rows, group)
        self.last_update_stats = stats
        if obs.enabled():
            publish_update_metrics(self, stats,
                                   wall_s=time.perf_counter() - t0)
        return stats

    def search(
        self,
        keys: Sequence[int],
        groups: Optional[Sequence[int]] = None,
    ) -> SearchBatch:
        """Search ``keys`` at the pipelined rate; returns one
        :class:`SearchBatch` whose views are the results in key order.

        Keys are packed ``M`` per beat (the multi-query width); explicit
        ``groups`` only make sense in independent mode and then apply to
        every beat.
        """
        keys = key_array(keys)
        if not keys.size:
            raise ConfigError("search needs at least one key")
        t0 = time.perf_counter() if obs.enabled() else 0.0
        with obs.span("session.search", engine=self.engine_name,
                      keys=keys.size):
            results, stats = self._search(keys, groups)
        self.last_search_stats = stats
        if obs.enabled():
            publish_search_metrics(
                self, stats, hits=int(results.hits.sum()),
                wall_s=time.perf_counter() - t0,
            )
        return results

    def search_one(self, key: int, group: Optional[int] = None) -> SearchResult:
        """Search a single key (optionally in a specific group)."""
        groups = None if group is None else [group]
        return self.search([key], groups=groups)[0]

    def contains(self, key: int) -> bool:
        """Convenience membership test."""
        return self.search_one(key).hit

    def delete(self, key: int) -> SearchResult:
        """Delete-by-content (extension): invalidate entries matching
        ``key`` in every group; returns what was invalidated."""
        with obs.span("session.delete", engine=self.engine_name):
            result = self._delete(check_key(key))
        obs.inc("cam_deletes_total", help="delete-by-content transactions",
                engine=self.engine_name)
        return result

    def set_groups(self, num_groups: int) -> None:
        """Reconfigure the runtime group count (flushes content)."""
        with obs.span("session.set_groups", engine=self.engine_name,
                      groups=num_groups):
            self._set_groups(num_groups)
        obs.inc("cam_regroups_total", help="runtime group reconfigurations",
                engine=self.engine_name)

    def reset(self) -> None:
        """Clear all stored content."""
        with obs.span("session.reset", engine=self.engine_name):
            self._reset()
        obs.inc("cam_episodes_total",
                help="reset-bounded content episodes completed",
                engine=self.engine_name)

    def stored_entries(self, group: int = 0) -> List[Optional[CamEntry]]:
        """Golden-model view of one group's content, in write order
        (deleted holes preserved as ``None``)."""
        self._check_group(group)
        return entry_views(*self._group_arrays(group), self.config.data_width)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture stored content (holes included) as a
        :class:`~repro.service.snapshot.CamSnapshot`."""
        from repro.service.snapshot import CamSnapshot, SnapshotEntry, unit_meta

        groups = []
        for group in ([0] if self.config.replicate_updates
                      else range(self.num_groups)):
            # canonical slots: value & care, and (0, 0) for a hole
            values, cares, live = self._group_arrays(group)
            cares = np.where(live, cares & ALL_ONES, 0)
            groups.append(list(map(SnapshotEntry, (values & cares).tolist(),
                                   cares.tolist(), live.tolist())))
        return CamSnapshot(
            kind="unit",
            meta=unit_meta(self.config, self.engine_name, self.num_groups),
            groups=groups,
        )

    def restore(self, snapshot) -> None:
        """Replace this session's content with a compatible snapshot."""
        from repro.service.snapshot import check_unit_compatible

        check_unit_compatible(snapshot, self.config, self.name)
        self._restore(snapshot)
        obs.inc("cam_restores_total", help="snapshot restores applied",
                engine=self.engine_name)

    def _restore(self, snapshot) -> None:
        """Replay a snapshot as real transactions.

        A regroup flush, then one bulk update of each non-empty group's
        ``(value, care)`` rows, zero-valued binary placeholders standing
        in for dead slots, which :meth:`_invalidate` then kills by
        address (a delete-by-content replay could not target a single
        slot: for ternary content the dead entry's value may still match
        *live* entries). The replay leaves fill pointers, hole positions
        and priority order bit-identical to the snapshotted unit, at the
        same cycle cost on every engine. It calls the engine primitives,
        not the public calls, so a wrapper such as the audit engine's
        sees one restore. A malformed slot raises
        :class:`~repro.errors.SnapshotError` before anything changed.
        """
        from repro.service.snapshot import slot_table

        tables = [slot_table(slots) for slots in snapshot.groups]
        self._set_groups(int(snapshot.meta.get("num_groups", 1)))
        replicated = self.config.replicate_updates
        for index, table in enumerate(tables):
            if not table.size:
                continue
            live = table["live"] != 0
            rows = np.stack([table["value"], table["care"]], axis=1)
            rows = (rows & ALL_ONES).astype(np.int64)
            rows[~live] = 0, mask_for(self.config.data_width)
            self._update(rows, None if replicated else index)
            if not live.all():
                self._invalidate(index, np.flatnonzero(~live))


class CamSession(_SessionBase):
    """Blocking transaction API over a cycle-accurate CAM unit.

    The register-accurate engine (``engine="cycle"`` in
    :func:`repro.open_session`). The vectorized
    :class:`~repro.core.batch.BatchSession` is its sibling: both
    conform to the :class:`repro.core.CamBackend` protocol and give
    bit-identical results and cycle counts.
    """

    engine_name = "cycle"

    def __init__(
        self,
        config: UnitConfig,
        trace: bool = False,
        name: str = "cam_unit",
    ) -> None:
        super().__init__(config, name)
        self.unit = CamUnit(config, name=name)
        self.trace = Trace() if trace else None
        self.sim = Simulator(self.unit, trace=self.trace)

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Total simulated cycles since construction/reset."""
        return self.sim.cycle

    @property
    def occupancy(self) -> int:
        return self.unit.stored_words(0)

    @property
    def num_groups(self) -> int:
        """Current runtime group count M."""
        return self.unit.num_groups

    # ------------------------------------------------------------------
    def _update(self, rows: np.ndarray, group: Optional[int]) -> UpdateStats:
        # Blocks until every beat's ``update_done`` pulse has landed.
        entries = entry_views(rows[:, 0], rows[:, 1], np.ones(len(rows), bool),
                              self.config.data_width)
        start = self.cycle
        per_beat = self.unit.words_per_beat
        beats = 0
        landed = 0
        with obs.span("unit.update") as unit_span:
            for offset in range(0, len(entries), per_beat):
                self.unit.issue_update(
                    entries[offset:offset + per_beat], group=group
                )
                self.sim.step()
                beats += 1
                if self.unit.update_done:
                    landed += 1
            # Drain every beat through the 6-cycle update pipeline.
            budget = self.unit.update_latency + 4
            for _ in range(budget):
                if landed >= beats:
                    break
                self.sim.step()
                if self.unit.update_done:
                    landed += 1
            unit_span.set(beats=beats, cycles=self.cycle - start)
        if landed < beats:
            raise SimulationError(
                f"update pipeline failed to drain ({beats - landed} beats "
                "pending)"
            )
        return UpdateStats(
            words=len(entries), beats=beats, cycles=self.cycle - start
        )

    def _search(
        self, keys: np.ndarray, groups: Optional[Sequence[int]]
    ) -> Tuple[SearchBatch, SearchStats]:
        keys = keys.tolist()
        start = self.cycle
        per_beat = self.unit.num_groups if groups is None else len(groups)
        pending = 0
        results: List[SearchResult] = []
        offset = 0
        budget = len(keys) + self.unit.search_latency + 16
        with obs.span("unit.search") as unit_span:
            for _ in range(budget):
                if offset < len(keys):
                    chunk = keys[offset:offset + per_beat]
                    chunk_groups = (None if groups is None
                                    else groups[: len(chunk)])
                    self.unit.issue_search(chunk, groups=chunk_groups)
                    offset += len(chunk)
                    pending += 1
                elif pending == 0:
                    break
                self.sim.step()
                out = self.unit.search_output
                if out is not None:
                    results.extend(out)
                    pending -= 1
            unit_span.set(cycles=self.cycle - start)
        if pending:
            raise SimulationError(
                f"search pipeline failed to drain ({pending} beats pending)"
            )
        stats = SearchStats(keys=len(keys), beats=-(-len(keys) // per_beat),
                            cycles=self.cycle - start)
        encoding = self.config.block.encoding
        return SearchBatch.from_results(results, encoding), stats

    def _delete(self, key: int) -> SearchResult:
        self.unit.issue_delete(key)
        for _ in range(self.unit.search_latency + 4):
            self.sim.step()
            out = self.unit.search_output
            if out is not None:
                return out[0]
        raise SimulationError("delete beat produced no result")

    def _set_groups(self, num_groups: int) -> None:
        self.unit.issue_regroup(num_groups)
        self.sim.step(self.unit.update_latency + 2)

    def _reset(self) -> None:
        self.unit.issue_reset()
        self.sim.step(self.unit.update_latency + 2)

    def idle(self, cycles: int = 1) -> None:
        """Let the clock run without issuing operations."""
        self.sim.step(cycles)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def _group_arrays(self, group: int):
        """``(values, cares, live)`` of one group's consumed slots in
        address order, read from the cell registers: the slot
        *positions* are part of the architectural state -- the fill
        pointer never rewinds, so hole placement decides which address
        a future insert lands on."""
        blocks = [self.unit.blocks[block_id]
                  for block_id in self.unit.table.blocks_in_group(group)]
        parts = [block.slot_arrays(block.occupancy) for block in blocks]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _invalidate(self, group: int, addresses: np.ndarray) -> None:
        """Kill the slots at ``addresses`` of ``group`` (every group when
        updates are replicated) directly at the cells, in no cycle."""
        groups = (range(self.num_groups) if self.config.replicate_updates
                  else [group])
        block_size = self.unit.block_size
        for g in groups:
            block_ids = self.unit.table.blocks_in_group(g)
            for address in addresses.tolist():
                block = self.unit.blocks[block_ids[address // block_size]]
                block.invalidate(address % block_size)
