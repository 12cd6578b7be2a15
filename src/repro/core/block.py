"""The CAM block (paper section III-B, figure 3).

A block groups a configurable number of DSP-based cells with the
control logic that makes them an operational CAM:

- a **DeMUX** steering the input bus to the update or search logic,
- **update logic** with a cell-address controller that writes up to
  ``bus_width / data_width`` words into consecutive cells in a single
  cycle,
- **search logic** broadcasting one masked key to every cell,
- an **encoder** condensing the per-cell match bits into the configured
  output scheme, with an optional extra output buffer register that the
  paper inserts for timing on large blocks/units,
- a **reset** path clearing every cell.

Measured timing (Table VI): update latency 1 cycle for any beat;
search latency 3 cycles (cells 2 + encoder register 1) or 4 with the
output buffer. Both paths are fully pipelined (initiation interval 1).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import BlockConfig
from repro.core.cell import CellArray
from repro.core.encoder import ResultEncoder
from repro.core.mask import CamEntry, entry_views
from repro.core.types import SearchResult
from repro.dsp import DspColumn
from repro.errors import CapacityError, ConfigError
from repro.fabric.area import block_resources
from repro.fabric.resources import ResourceVector

#: Depth of the cell search path: C register + P register.
_CELL_PIPE_DEPTH = 2


def cell_slice_names(block_name: str, size: int) -> List[str]:
    """Trace names of a block's DSP slices, cell 0 first."""
    return [f"{block_name}.cell{i}.dsp" for i in range(size)]


class CamBlock(CellArray):
    """One CAM block: cells plus DeMUX, update/search logic, encoder.

    The cells are the slice range ``[offset, offset + block_size)`` of
    ``column`` -- in a unit, the unit's one column -- or, without a
    ``column``, a column of the block's own. ``column_lines``, when
    given, returns the match line of every slice of ``column`` for the
    current cycle (a unit computes them once for all of its blocks);
    without it the block reads its own range (:meth:`match_bits`).

    Input ports (drive during a compute phase, or before a testbench
    step; consumed and self-cleared each cycle). Updates and searches
    use *separate* paths into the cells (figure 3: the DeMUX feeds an
    update logic and a search logic) -- a write lands on the cells' A/B
    ports while a compare uses the C port -- so one block accepts an
    update beat and a search beat in the same cycle:

    - :attr:`in_update_valid` / :attr:`in_update` -- sequence of
      :class:`CamEntry` words (at most :attr:`words_per_beat`).
    - :attr:`in_search_valid` / :attr:`in_key` -- search key.
    - :attr:`in_delete` -- when asserted with a search, matching cells
      are invalidated when the comparison completes (delete-by-content;
      an extension beyond the paper, see DESIGN.md section 5).
    - :attr:`in_reset` -- clear all stored content.

    Registered outputs:

    - :attr:`result_valid` / :attr:`result_lines` -- the ``(key,
      match lines)`` of a completed search, one bit per cell: the
      encoder's input, registered. :attr:`result` is the encoder's
      :class:`SearchResult` for it, built on demand.
    - :attr:`update_done` -- pulses the cycle after an update lands.
    """

    def __init__(
        self,
        config: BlockConfig,
        block_id: int = 0,
        buffered: Optional[bool] = None,
        name: Optional[str] = None,
        column: Optional[DspColumn] = None,
        offset: int = 0,
        column_lines: Optional[Callable[[], np.ndarray]] = None,
    ) -> None:
        name = name or f"block{block_id}"
        super().__init__(
            config.block_size,
            config.cell.data_width,
            name,
            slice_names=(cell_slice_names(name, config.block_size)
                         if column is None else None),
            column=column,
            offset=offset,
        )
        self.config = config
        self.block_id = block_id
        self.buffered = config.buffered if buffered is None else buffered
        self.encoder = ResultEncoder(config.encoding, config.block_size)
        self._column_lines = column_lines
        self.reset_state()

    # ------------------------------------------------------------------
    @property
    def words_per_beat(self) -> int:
        return self.config.words_per_beat

    @property
    def occupancy(self) -> int:
        """Number of cells consumed (the fill pointer; holes included)."""
        return self._fill

    @property
    def live_entries(self) -> int:
        """Stored words minus delete-by-content invalidations."""
        return self._fill - self._deleted

    @property
    def free_cells(self) -> int:
        return self.size - self._fill

    @property
    def full(self) -> bool:
        return self._fill >= self.size

    @property
    def search_latency(self) -> int:
        """Cycles from key-in to result-out for this instance."""
        return _CELL_PIPE_DEPTH + 1 + (1 if self.buffered else 0)

    @property
    def update_latency(self) -> int:
        return 1

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        super().reset_state()
        self.in_update_valid = False
        self.in_update: Sequence[CamEntry] = ()
        self.in_search_valid = False
        self.in_key = 0
        self.in_delete = False
        self.in_reset = False
        self.result_valid = False
        self.result_lines: Optional[Tuple[int, np.ndarray]] = None
        self.update_done = False
        self._fill = 0
        self._deleted = 0
        self._search_pipe: List[Optional[Tuple[int, bool]]] = (
            [None] * _CELL_PIPE_DEPTH
        )
        self._buffer: Optional[Tuple[int, np.ndarray]] = None

    @property
    def result(self) -> Optional[SearchResult]:
        """The encoder's output for :attr:`result_lines` (combinational)."""
        if self.result_lines is None:
            return None
        key, lines = self.result_lines
        return self.encoder.encode(key, lines)

    def _match_lines(self) -> np.ndarray:
        """This cycle's match line of every cell of the block."""
        if self._column_lines is None:
            return self.match_bits()
        return self._column_lines()[self._cells]

    # ------------------------------------------------------------------
    def compute(self) -> None:
        updates = {
            "in_update_valid": False,
            "in_search_valid": False,
            "in_delete": False,
            "in_reset": False,
            "update_done": False,
        }
        search_token: Optional[Tuple[int, bool]] = None
        entries: Tuple[CamEntry, ...] = ()
        clear: Optional[np.ndarray] = None

        if self.in_reset:
            if self.in_update_valid:
                raise ConfigError(
                    f"{self.name}: reset and update collide in one cycle"
                )
            clear = np.ones(self.size, dtype=bool)
            updates["_fill"] = 0
            updates["_deleted"] = 0
        elif self.in_update_valid:
            entries = self._check_update(self.in_update)
            updates["_fill"] = self._fill + len(entries)
            updates["update_done"] = True

        if self.in_search_valid:
            search_token = (self.in_key, self.in_delete)
            self._broadcast(self.in_key)

        # Search pipeline: tokens track keys through the 2-cycle cell path.
        token_out = self._search_pipe[-1]
        updates["_search_pipe"] = [search_token] + self._search_pipe[:-1]

        registered = None
        if token_out is not None:
            key, delete = token_out
            lines = self._match_lines()
            registered = (key, lines)
            # The hit flag is needed only to delete or to trace.
            hit = (delete or self._tracer is not None) and bool(lines.any())
            if delete and hit:
                # Delete-by-content: invalidate every matching cell as
                # the comparison completes. Freed cells are reclaimed at
                # reset, not reused (the fill pointer stays monotone).
                clear = lines if clear is None else clear | lines
                if "_deleted" not in updates:
                    updates["_deleted"] = (self._deleted
                                           + int(np.count_nonzero(lines)))
        updates.update(self._drive_cells(self._fill, entries, clear))

        if self.buffered:
            updates["_buffer"] = registered
            registered = self._buffer
        updates["result_valid"] = registered is not None
        updates["result_lines"] = registered

        if self._pending:
            self.schedule(**updates)
        else:
            self._pending = updates
        if token_out is not None and self._tracer is not None:
            self.emit(match=hit, key=token_out)

    # ------------------------------------------------------------------
    def _check_update(self, entries: Sequence[CamEntry]) -> Tuple[CamEntry, ...]:
        """Validate an update beat for the cells from the fill pointer."""
        entries = tuple(entries)
        if not entries:
            raise ConfigError(f"{self.name}: empty update beat")
        if len(entries) > self.words_per_beat:
            raise CapacityError(
                f"{self.name}: beat carries {len(entries)} words but the "
                f"bus fits {self.words_per_beat}"
            )
        if self._fill + len(entries) > self.size:
            raise CapacityError(
                f"{self.name}: update of {len(entries)} words overflows "
                f"({self._fill}/{self.size} occupied)"
            )
        for entry in entries:
            if not isinstance(entry, CamEntry):
                raise ConfigError(
                    f"{self.name}: update words must be CamEntry, got "
                    f"{type(entry).__name__}"
                )
        return entries

    # ------------------------------------------------------------------
    # testbench conveniences (drive ports, not state)
    # ------------------------------------------------------------------
    def issue_update(self, entries: Sequence[CamEntry]) -> None:
        """Present an update beat for the next cycle."""
        self.in_update_valid = True
        self.in_update = tuple(entries)

    def issue_search(self, key: int) -> None:
        """Present a search key for the next cycle."""
        self.in_search_valid = True
        self.in_key = key

    def issue_delete(self, key: int) -> None:
        """Present a delete-by-content key for the next cycle."""
        self.in_search_valid = True
        self.in_delete = True
        self.in_key = key

    def issue_reset(self) -> None:
        """Present a reset for the next cycle."""
        self.in_reset = True

    # ------------------------------------------------------------------
    def slots(self) -> List[Optional[CamEntry]]:
        """Golden-model view of the consumed cells, in address order:
        each stored entry, or ``None`` for a delete-by-content hole."""
        return entry_views(*self.slot_arrays(self._fill), self.data_width)

    def stored_entries(self) -> List[CamEntry]:
        """Golden-model view of the block contents, in fill order."""
        return [entry for entry in self.slots() if entry is not None]

    def invalidate(self, cell: int) -> None:
        """Invalidate one stored cell outside the clock.

        A state poke for replaying snapshots: the cell becomes a hole
        exactly as if delete-by-content had removed it, so the fill
        pointer and hole positions match the snapshotted block.
        """
        if not 0 <= cell < self._fill or not self.occupied_bits[cell]:
            raise ConfigError(f"{self.name}: cell {cell} holds no entry")
        occupied = self.occupied_bits.copy()
        occupied[cell] = False
        self.occupied_bits = occupied
        self._deleted += 1

    def resources(self) -> ResourceVector:
        """Estimated resource cost (cells + calibrated control logic)."""
        return block_resources(
            self.size, self.config.bus_width, buffered=self.buffered
        )
