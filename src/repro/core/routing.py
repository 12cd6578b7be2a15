"""Routing Compute and Post-Router stages of the CAM unit (figure 4).

The unit's datapath ahead of the blocks is modelled by two pipeline
components that contribute exactly the register stages of the paper's
design:

- :class:`RoutingCompute` (2 stages: input interface register + routing
  table lookup register). It owns the **Routing Table**, the
  runtime-writable array mapping block IDs to group IDs; the table
  shares the update datapath, so remapping is just another beat kind.
- :class:`PostRouter` (2 stages on the search path: key replication +
  crossbar; 3 on the update path, the extra one being the per-group
  **Block Address Controller** that resolves the round-robin target).

Together with the block's own latency this yields the measured
end-to-end figures of Table VIII: 4 + 3/4 cycles for search, 5 + 1 for
update.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import RoutingError
from repro.sim.component import Component
from repro.sim.pipeline import ValidPipe


class RoutingTable:
    """The Block-ID -> Group-ID mapping array.

    Stored as a plain list indexed by block ID. The default layout
    assigns contiguous runs of blocks to each group; any surjective
    mapping with equal group populations is accepted, reflecting the
    paper's point that groups are *logical* and "not tied to the
    physical layout".
    """

    def __init__(self, num_blocks: int, num_groups: int = 1) -> None:
        if num_blocks < 1:
            raise RoutingError(f"num_blocks must be >= 1, got {num_blocks}")
        self._num_blocks = num_blocks
        self.remap_contiguous(num_groups)

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def num_groups(self) -> int:
        return self._num_groups

    @property
    def blocks_per_group(self) -> int:
        return self._num_blocks // self._num_groups

    def group_of(self, block_id: int) -> int:
        """Group that ``block_id`` currently belongs to."""
        return self._mapping[block_id]

    def blocks_in_group(self, group_id: int) -> Tuple[int, ...]:
        """Block IDs of one group, in ascending order."""
        if not 0 <= group_id < self._num_groups:
            raise RoutingError(
                f"group {group_id} out of range (0..{self._num_groups - 1})"
            )
        return self._groups[group_id]

    def as_list(self) -> List[int]:
        return list(self._mapping)

    # ------------------------------------------------------------------
    def remap_contiguous(self, num_groups: int) -> None:
        """Reinitialise to the default contiguous layout."""
        if num_groups < 1 or self._num_blocks % num_groups:
            raise RoutingError(
                f"group count {num_groups} must be a positive divisor of "
                f"{self._num_blocks} blocks"
            )
        per_group = self._num_blocks // num_groups
        self._install([b // per_group for b in range(self._num_blocks)],
                      num_groups)

    def remap(self, mapping: List[int]) -> None:
        """Install an explicit mapping (must partition blocks evenly)."""
        if len(mapping) != self._num_blocks:
            raise RoutingError(
                f"mapping covers {len(mapping)} blocks, expected "
                f"{self._num_blocks}"
            )
        groups = sorted(set(mapping))
        if groups != list(range(len(groups))):
            raise RoutingError("group IDs must be dense starting at 0")
        num_groups = len(groups)
        if self._num_blocks % num_groups:
            raise RoutingError(
                f"{num_groups} groups cannot evenly partition "
                f"{self._num_blocks} blocks"
            )
        per_group = self._num_blocks // num_groups
        for group in groups:
            population = mapping.count(group)
            if population != per_group:
                raise RoutingError(
                    f"group {group} has {population} blocks, expected "
                    f"{per_group}"
                )
        self._install(list(mapping), num_groups)

    def _install(self, mapping: List[int], num_groups: int) -> None:
        """Take ``mapping`` and cache each group's block IDs."""
        self._mapping = mapping
        self._num_groups = num_groups
        self._groups = tuple(
            tuple(b for b, g in enumerate(mapping) if g == group)
            for group in range(num_groups)
        )


class RoutingCompute(Component):
    """Input interface + routing-table lookup (2 registered stages).

    The parent unit pushes raw operation beats with :meth:`send`; two
    cycles later the beat is readable at :meth:`tail` with group
    routing resolved (attached by the unit's mapping function).
    """

    DEPTH = 2

    def __init__(self, table: RoutingTable, name: Optional[str] = None) -> None:
        super().__init__(name or "routing_compute")
        self.table = table
        self._pipe = self.add_child(ValidPipe(self.DEPTH, name=f"{self.name}.pipe"))

    def send(self, beat) -> None:
        self._pipe.send(beat)

    def tail(self) -> Tuple[bool, object]:
        return self._pipe.tail()

    def reset_state(self) -> None:
        pass


class PostRouter(Component):
    """Replication + crossbar (+ block address controller for updates).

    Two parallel fixed-latency paths model the figure-4 Post-Router:
    searches take 2 stages (replicate, crossbar), updates take 3 (the
    crossbar hand-off to each group's block address controller adds a
    stage, which is why unit updates cost 6 cycles to a search's 7).
    """

    SEARCH_DEPTH = 2
    UPDATE_DEPTH = 3

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name or "post_router")
        self._search_pipe = self.add_child(
            ValidPipe(self.SEARCH_DEPTH, name=f"{self.name}.search")
        )
        self._update_pipe = self.add_child(
            ValidPipe(self.UPDATE_DEPTH, name=f"{self.name}.update")
        )

    def send_search(self, beat) -> None:
        self._search_pipe.send(beat)

    def send_update(self, beat) -> None:
        self._update_pipe.send(beat)

    def search_tail(self) -> Tuple[bool, object]:
        return self._search_pipe.tail()

    def update_tail(self) -> Tuple[bool, object]:
        return self._update_pipe.tail()

    def reset_state(self) -> None:
        pass
