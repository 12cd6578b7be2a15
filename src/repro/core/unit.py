"""The CAM unit (paper section III-C, figure 4).

A unit composes ``num_blocks`` CAM blocks with a Routing Compute stage
(owning the runtime Routing Table), a Post-Router crossbar, and
input/output interfaces. Blocks are partitioned into ``M`` logical
groups, reconfigurable at runtime:

- **Update** (replicated mode, the paper's default): every beat is
  replicated into all ``M`` groups and written round-robin within each
  group, so each group holds the full content.
- **Search**: up to ``M`` keys per cycle, one per group; each key is
  broadcast to every block of its group and the per-block results are
  merged combinationally at the output interface.
- **Independent mode**: groups act as separate CAMs; updates and
  searches carry explicit group IDs.

Every cell of the unit is a slice of one :class:`repro.dsp.DspColumn`,
stepped once per cycle; block ``k`` drives and reads the slice range
``[k * block_size, (k + 1) * block_size)``. The unit computes the match
line of every slice once per cycle, each block registers its range of
them, and the output interface encodes one result per group from its
blocks' lines (Table III's encoder at group width).

Measured end-to-end latency (Table VIII): update 6 cycles, search
7 cycles (8 once the encoder output buffer engages at >= 2K entries).
Both paths sustain one beat per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.block import CamBlock, cell_slice_names
from repro.core.cell import cam_column, match_lines, tie_off
from repro.core.config import UnitConfig
from repro.core.encoder import pack_match_bits
from repro.core.group import BlockAddressController
from repro.core.mask import CamEntry
from repro.core.routing import PostRouter, RoutingCompute, RoutingTable
from repro.core.types import SearchResult
from repro.errors import CapacityError, ConfigError, RoutingError
from repro.fabric.area import unit_resources
from repro.fabric.resources import ResourceVector
from repro.sim.component import Component
from repro.sim.pipeline import ValidPipe


@dataclass(frozen=True)
class _UpdateBeat:
    words: Tuple[CamEntry, ...]
    group: Optional[int]  # None = replicate to every group


@dataclass(frozen=True)
class _SearchBeat:
    #: (query_index, group_id, key) triples.
    queries: Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class _DeleteBeat:
    """Delete-by-content: one key, applied to every replica group."""

    key: int


@dataclass(frozen=True)
class _ResetBeat:
    pass


@dataclass(frozen=True)
class _RemapBeat:
    num_groups: int
    mapping: Optional[Tuple[int, ...]]


class CamUnit(Component):
    """The top-level configurable multi-query CAM.

    Drive with :meth:`issue_update`, :meth:`issue_search`,
    :meth:`issue_reset` or :meth:`issue_regroup` (one beat per cycle),
    step the simulator, and read :attr:`search_output` /
    :attr:`update_done`. For a transaction-level API that hides the
    cycle driving, use :class:`repro.core.session.CamSession`.
    """

    def __init__(self, config: UnitConfig, name: Optional[str] = None) -> None:
        super().__init__(name or "cam_unit")
        self.config = config
        self.table = RoutingTable(config.num_blocks, config.default_groups)
        self.routing = self.add_child(RoutingCompute(self.table))
        self.post_router = self.add_child(PostRouter())
        buffered = config.block_buffered
        size = config.block.block_size
        names = [f"{self.name}.block{i}" for i in range(config.num_blocks)]
        # One DSP column over every slice of the unit; each block drives
        # and reads its own range of it.
        self.column = cam_column(
            config.total_entries,
            config.block.cell.data_width,
            f"{self.name}.column",
            [slice_name for name in names
             for slice_name in cell_slice_names(name, size)],
        )
        self.blocks: List[CamBlock] = [
            self.add_child(
                CamBlock(
                    config.block,
                    block_id=i,
                    buffered=buffered,
                    name=name,
                    column=self.column,
                    offset=i * size,
                    column_lines=self._column_lines,
                )
            )
            for i, name in enumerate(names)
        ]
        self._result_pipe = self.add_child(
            ValidPipe(self.block_search_latency, name=f"{self.name}.results")
        )
        # Last child: the column computes after every block has driven
        # its ports for the cycle.
        self.add_child(self.column)
        # (block occupancy arrays, block mask arrays, their unit-wide
        # concatenations): rebuilt when a block's arrays are replaced.
        self._cell_state: Optional[tuple] = None
        self._init_control_state()
        self.reset_state()

    # ------------------------------------------------------------------
    # static properties
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    @property
    def block_size(self) -> int:
        return self.config.block.block_size

    @property
    def total_entries(self) -> int:
        return self.config.total_entries

    @property
    def block_search_latency(self) -> int:
        return self.config.block_search_latency

    @property
    def search_latency(self) -> int:
        return self.config.search_latency

    @property
    def update_latency(self) -> int:
        return self.config.update_latency

    @property
    def words_per_beat(self) -> int:
        return self.config.words_per_beat

    # ------------------------------------------------------------------
    # runtime-configurable grouping
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return self.table.num_groups

    @property
    def blocks_per_group(self) -> int:
        return self.table.blocks_per_group

    @property
    def group_capacity(self) -> int:
        """Entries each logical CAM group can hold."""
        return self.blocks_per_group * self.block_size

    def _init_control_state(self) -> None:
        self._controllers: Dict[int, BlockAddressController] = {
            g: BlockAddressController(self.blocks_per_group, self.block_size)
            for g in range(self.num_groups)
        }
        self._stored: Dict[int, int] = {g: 0 for g in range(self.num_groups)}

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        self.in_beat: Optional[object] = None
        self.update_done = False
        self._lines: Optional[np.ndarray] = None
        self._init_control_state()

    # ------------------------------------------------------------------
    # issue interface (one beat per cycle)
    # ------------------------------------------------------------------
    def _stage_beat(self, beat: object) -> None:
        if self.in_beat is not None:
            raise ConfigError(
                f"{self.name}: one operation beat per cycle; a "
                f"{type(self.in_beat).__name__} is already staged"
            )
        self.in_beat = beat

    def issue_update(
        self, words: Sequence[CamEntry], group: Optional[int] = None
    ) -> None:
        """Stage an update beat of up to ``words_per_beat`` stored words.

        In replicated mode (``group=None``) the beat is written into
        every group; in independent mode ``group`` selects the target.
        Raises :class:`CapacityError` immediately when the content no
        longer fits (issue order equals apply order, so issue-time
        accounting is exact).
        """
        words = tuple(words)
        if not words:
            raise ConfigError(f"{self.name}: empty update beat")
        if len(words) > self.words_per_beat:
            raise CapacityError(
                f"{self.name}: beat carries {len(words)} words, bus fits "
                f"{self.words_per_beat}"
            )
        for word in words:
            if not isinstance(word, CamEntry):
                raise ConfigError(
                    f"{self.name}: update words must be CamEntry, got "
                    f"{type(word).__name__}"
                )
        targets = self._update_targets(group)
        for g in targets:
            if self._stored[g] + len(words) > self.group_capacity:
                raise CapacityError(
                    f"{self.name}: group {g} cannot take {len(words)} more "
                    f"words ({self._stored[g]}/{self.group_capacity} used)"
                )
        for g in targets:
            self._stored[g] += len(words)
        self._stage_beat(_UpdateBeat(words=words, group=group))
        obs.inc("cam_unit_update_beats_total",
                help="update beats issued to the unit pipeline")

    def _update_targets(self, group: Optional[int]) -> List[int]:
        if self.config.replicate_updates:
            if group is not None:
                raise RoutingError(
                    f"{self.name}: replicated mode updates every group; "
                    "do not pass a group id"
                )
            return list(range(self.num_groups))
        if group is None:
            raise RoutingError(
                f"{self.name}: independent mode requires a target group"
            )
        if not 0 <= group < self.num_groups:
            raise RoutingError(
                f"{self.name}: group {group} out of range "
                f"(0..{self.num_groups - 1})"
            )
        return [group]

    def issue_search(
        self,
        keys: Sequence[int],
        groups: Optional[Sequence[int]] = None,
    ) -> None:
        """Stage up to ``num_groups`` concurrent search keys.

        In replicated mode key *i* is routed to group *i* (any group
        holds the full content, so the assignment is free); explicit
        ``groups`` may be given in independent mode and must be
        distinct.
        """
        keys = tuple(int(k) for k in keys)
        if not keys:
            raise ConfigError(f"{self.name}: empty search beat")
        if len(keys) > self.num_groups:
            raise RoutingError(
                f"{self.name}: {len(keys)} concurrent queries exceed the "
                f"current group count M={self.num_groups}"
            )
        if groups is None:
            group_ids = list(range(len(keys)))
        else:
            group_ids = [int(g) for g in groups]
            if len(group_ids) != len(keys):
                raise RoutingError(
                    f"{self.name}: {len(keys)} keys but {len(group_ids)} "
                    "group ids"
                )
            if len(set(group_ids)) != len(group_ids):
                raise RoutingError(
                    f"{self.name}: each query needs a distinct group"
                )
            for g in group_ids:
                if not 0 <= g < self.num_groups:
                    raise RoutingError(
                        f"{self.name}: group {g} out of range "
                        f"(0..{self.num_groups - 1})"
                    )
        queries = tuple(
            (index, group_ids[index], key) for index, key in enumerate(keys)
        )
        self._stage_beat(_SearchBeat(queries=queries))
        obs.inc("cam_unit_search_beats_total",
                help="multi-query search beats issued to the unit pipeline")

    def issue_delete(self, key: int) -> None:
        """Stage a delete-by-content beat (extension beyond the paper).

        The key is broadcast to every block of every group, so all
        replicas invalidate the same entries. Freed cells are reclaimed
        only by reset; ``stored_words`` keeps counting consumed cells.
        """
        self._stage_beat(_DeleteBeat(key=int(key)))
        obs.inc("cam_unit_delete_beats_total",
                help="delete-by-content beats issued to the unit pipeline")

    def issue_reset(self) -> None:
        """Stage a full-content reset."""
        self._stage_beat(_ResetBeat())
        self._stored = {g: 0 for g in range(self.num_groups)}

    def issue_regroup(
        self, num_groups: int, mapping: Optional[Sequence[int]] = None
    ) -> None:
        """Stage a runtime group-count reconfiguration.

        Regrouping changes the replication layout, so the content is
        flushed as part of the beat (the paper's user kernel reloads
        data after regrouping).
        """
        if num_groups < 1 or self.num_blocks % num_groups:
            raise RoutingError(
                f"{self.name}: group count {num_groups} must divide "
                f"{self.num_blocks} blocks"
            )
        beat = _RemapBeat(
            num_groups=num_groups,
            mapping=None if mapping is None else tuple(mapping),
        )
        self._stage_beat(beat)

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def compute(self) -> None:
        tie_off(self.column)
        self._lines = None
        # Stage 0: accept the staged beat into the routing pipeline.
        beat = self.in_beat
        self.in_beat = None
        if beat is not None:
            self.routing.send(beat)

        # Stage 2 (after RoutingCompute): dispatch to the post-router.
        valid, routed = self.routing.tail()
        if valid:
            if isinstance(routed, (_SearchBeat, _DeleteBeat)):
                self.post_router.send_search(routed)
            else:
                self.post_router.send_update(routed)

        # Stage 4: apply searches / deletes to the blocks.
        valid, search_beat = self.post_router.search_tail()
        if valid:
            if isinstance(search_beat, _DeleteBeat):
                for block in self.blocks:
                    block.issue_delete(search_beat.key)
            else:
                self._apply_search(search_beat)
            self._result_pipe.send(search_beat)

        # Stage 5: apply updates / resets / regroups to the blocks.
        update_applied = False
        valid, update_beat = self.post_router.update_tail()
        if valid:
            if isinstance(update_beat, _UpdateBeat):
                self._apply_update(update_beat)
                update_applied = True
            elif isinstance(update_beat, _ResetBeat):
                self._apply_reset()
            elif isinstance(update_beat, _RemapBeat):
                self._apply_remap(update_beat)
            else:  # pragma: no cover - defensive
                raise ConfigError(f"unknown beat {update_beat!r}")
        self.schedule(update_done=update_applied)

    # ------------------------------------------------------------------
    def _column_lines(self) -> np.ndarray:
        """The match line of every slice of the unit for this cycle.

        Combinational over registered state (the column's P outputs, the
        blocks' occupancy and masks), so it is computed once, on the
        first block's request, and every block reads its range of it.
        """
        lines = self._lines
        if lines is None:
            occupied = [block.occupied_bits for block in self.blocks]
            masks = [block.entry_masks for block in self.blocks]
            state = self._cell_state
            if (state is None or not all(map(is_, occupied, state[0]))
                    or not all(map(is_, masks, state[1]))):
                state = self._cell_state = (
                    occupied, masks,
                    np.concatenate(occupied), np.concatenate(masks),
                )
            lines = self._lines = match_lines(self.column.p, state[2],
                                              state[3])
        return lines

    def _apply_search(self, beat: _SearchBeat) -> None:
        for _index, group, key in beat.queries:
            for block_id in self.table.blocks_in_group(group):
                self.blocks[block_id].issue_search(key)

    def _apply_update(self, beat: _UpdateBeat) -> None:
        targets = self._update_targets(beat.group)
        for g in targets:
            controller = self._controllers[g]
            block_ids = self.table.blocks_in_group(g)
            free = [self.blocks[b].free_cells for b in block_ids]
            plan = controller.plan(len(beat.words), free)
            offset = 0
            for slot, count in plan.segments:
                block = self.blocks[block_ids[slot]]
                block.issue_update(beat.words[offset:offset + count])
                offset += count
            controller.commit(plan)

    def _apply_reset(self) -> None:
        for block in self.blocks:
            block.issue_reset()
        for controller in self._controllers.values():
            controller.reset()

    def _apply_remap(self, beat: _RemapBeat) -> None:
        if beat.mapping is not None:
            self.table.remap(list(beat.mapping))
            if self.table.num_groups != beat.num_groups:
                raise RoutingError(
                    f"{self.name}: mapping implies {self.table.num_groups} "
                    f"groups, requested {beat.num_groups}"
                )
        else:
            self.table.remap_contiguous(beat.num_groups)
        self._init_control_state()
        for block in self.blocks:
            block.issue_reset()

    # ------------------------------------------------------------------
    # output interface (combinational merge over block result registers)
    # ------------------------------------------------------------------
    @property
    def search_output(self) -> Optional[List[SearchResult]]:
        """Completed query results, or ``None`` when nothing finished.

        Valid for exactly one post-step window per search beat, ordered
        by query index. Addresses are group-content addresses
        (``block_slot * block_size + cell``), identical across groups
        in replicated mode.
        """
        valid, beat = self._result_pipe.tail()
        if not valid:
            return None
        if isinstance(beat, _DeleteBeat):
            # Every replica deleted the same entries; report group 0's
            # view (hit/vector describe what was invalidated).
            return [self._merge_group_results(0, beat.key)]
        results: List[SearchResult] = []
        for _index, group, key in beat.queries:
            results.append(self._merge_group_results(group, key))
        return results

    def _merge_group_results(self, group: int, key: int) -> SearchResult:
        """Encode one group's answer from its blocks' registered lines.

        The lines are laid out in slot order, so a block's cell
        addresses land at ``slot * block_size + cell``.
        """
        lines = []
        for block_id in self.table.blocks_in_group(group):
            block = self.blocks[block_id]
            if block.result_lines is None:
                raise ConfigError(
                    f"{self.name}: block {block_id} produced no result for "
                    f"an expected search (pipeline desync)"
                )
            local_key, local_lines = block.result_lines
            if local_key != key:  # pragma: no cover - defensive
                raise ConfigError(
                    f"{self.name}: block {block_id} answered key "
                    f"{local_key}, expected {key}"
                )
            lines.append(local_lines)
        vector = pack_match_bits(np.concatenate(lines))
        return SearchResult.from_vector(key, vector,
                                        self.config.block.encoding)

    # ------------------------------------------------------------------
    # golden-model views
    # ------------------------------------------------------------------
    def stored_words(self, group: int = 0) -> int:
        """Words currently stored in ``group`` (issue-time accounting)."""
        return self._stored[group]

    def stored_entries(self, group: int = 0) -> List[CamEntry]:
        """Contents of one group in write order (golden view)."""
        entries: List[CamEntry] = []
        for block_id in self.table.blocks_in_group(group):
            entries.extend(self.blocks[block_id].stored_entries())
        return entries

    def resources(self) -> ResourceVector:
        """Estimated full-unit resource vector (calibrated model)."""
        return unit_resources(
            self.total_entries,
            block_size=self.block_size,
            bus_width=self.config.unit_bus_width,
        )
