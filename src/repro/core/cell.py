"""The DSP-based CAM cell (paper section III-A, figure 2).

One cell is one DSP48E2 slice in logic mode computing
``O = (A:B) XOR C``: the A:B register pair holds the stored word, the C
register latches the broadcast search key, and the pattern detector
reports a (masked) all-zero XOR result as a match. A per-entry ignore
mask register alongside the slice realises the TCAM/RMCAM behaviour of
Table II; an occupancy flip-flop gates matches so empty cells never hit.

Cells are modelled as a :class:`CellArray`: the slices of N cells are
one :class:`repro.dsp.DspColumn`, and the occupancy flip-flops and
ignore masks are arrays beside it, so a write beat, a broadcast and a
match are array operations. A CAM block is a cell array of
``block_size`` cells; :class:`CamCell` is a cell array of one.

Timing (Table V): update latency 1 cycle, search latency 2 cycles
(C register, then ALU result into the P register), cost exactly 1 DSP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.mask import CamEntry, width_mask
from repro.core.types import CamType
from repro.dsp import (
    ALL_ONES,
    B_WIDTH,
    CAM_ALUMODE,
    CAM_OPMODE,
    DspColumn,
    cam_cell_attributes,
    mask_for,
)
from repro.dsp.primitives import DSP_WIDTH
from repro.errors import ConfigError
from repro.fabric.resources import ResourceVector
from repro.sim.component import Component

_ALUMODE = int(CAM_ALUMODE)
_B_MASK = mask_for(B_WIDTH)


class CellArray(Component):
    """N CAM cells: one DSP column plus occupancy and ignore-mask arrays.

    State (arrays indexed by cell, replaced at each edge, never mutated
    in place):

    - :attr:`occupied_bits` -- the occupancy flip-flops.
    - :attr:`entry_masks` -- each stored entry's ignore mask.
    - the stored words and the latched key live in :attr:`column`.

    Subclasses drive the cells from their own compute phase:
    :meth:`_broadcast` puts a key on every C port, :meth:`_drive_cells`
    drives the write port and returns the cell-state updates to
    schedule, and :meth:`match_bits` reads every match line.
    """

    def __init__(
        self,
        size: int,
        data_width: int,
        name: str,
        slice_names: Sequence[str],
    ) -> None:
        super().__init__(name)
        if not 1 <= data_width <= DSP_WIDTH:
            raise ConfigError(
                f"data width must be 1..{DSP_WIDTH}, got {data_width}"
            )
        self.data_width = data_width
        self.column = self.add_child(
            DspColumn(size, cam_cell_attributes(mask=width_mask(data_width)),
                      name=f"{self.name}.column", slice_names=slice_names)
        )

    def reset_state(self) -> None:
        size = self.column.size
        self.occupied_bits = np.zeros(size, dtype=bool)
        self.entry_masks = np.full(size, width_mask(self.data_width),
                                   dtype=np.uint64)

    # ------------------------------------------------------------------
    def _broadcast(self, key: int) -> None:
        """Search logic: one key on every cell's C port (held until the
        next broadcast)."""
        self.column.c = key

    def _drive_cells(
        self,
        base: int = 0,
        entries: Sequence[CamEntry] = (),
        clear: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Drive the cells' write port for this cycle.

        ``entries`` land in consecutive cells from ``base`` and
        ``clear`` (one bit per cell) invalidates cells, both at the next
        edge; the two never name the same cell. Returns the occupancy
        and mask updates for the caller to schedule.
        """
        column = self.column
        # The cells tie the slices' mode pins to the CAM mode.
        column.opmode = CAM_OPMODE
        column.alumode = _ALUMODE
        if not entries:
            column.ce_a = column.ce_b = False
            if clear is None:
                return {}
            return {"occupied_bits": self.occupied_bits & ~clear}
        size = column.size
        stop = base + len(entries)
        write = np.zeros(size, dtype=bool)
        write[base:stop] = True
        values = np.zeros(size, dtype=np.uint64)
        values[base:stop] = [entry.value & ALL_ONES for entry in entries]
        masks = self.entry_masks.copy()
        masks[base:stop] = [entry.mask & ALL_ONES for entry in entries]
        column.a = values >> B_WIDTH
        column.b = values & _B_MASK
        column.ce_a = column.ce_b = write
        occupied = self.occupied_bits | write
        if clear is not None:
            occupied &= ~clear
        return {"occupied_bits": occupied, "entry_masks": masks}

    # ------------------------------------------------------------------
    def match_bits(self) -> np.ndarray:
        """Every cell's match bit for the key latched two edges ago.

        Combinational: the registered XOR result (the P outputs) under
        each stored entry's ignore mask -- the "post-processing after
        the XOR operation" of section III-A. Empty cells never match.
        """
        return self.occupied_bits & ((self.column.p & ~self.entry_masks) == 0)

    def _entries(self, stop: int) -> List[Optional[CamEntry]]:
        """Golden-model view of cells ``[0, stop)``: each stored entry,
        or ``None`` for an empty cell."""
        values = self.column.stored_ab[:stop].tolist()
        masks = self.entry_masks[:stop].tolist()
        occupied = self.occupied_bits[:stop].tolist()
        width = self.data_width
        return [CamEntry(value=value, mask=mask, width=width) if live else None
                for value, mask, live in zip(values, masks, occupied)]


class CamCell(CellArray):
    """One CAM storage-and-compare cell backed by a DSP48E2 slice.

    Input ports (driven by the parent or a testbench):

    - :attr:`write_enable` / :attr:`write_entry` -- store a
      :class:`repro.core.mask.CamEntry` at the next edge.
    - :attr:`search_key` -- broadcast key; latched into C every cycle.
    - :attr:`clear` -- invalidate the stored entry.

    Combinational outputs (valid during the next compute phases):

    - :meth:`match_now` -- match bit computed from the registered XOR
      result and the per-entry mask; reflects the key latched two
      edges earlier.
    - :attr:`occupied` -- the occupancy flip-flop.
    """

    def __init__(
        self,
        cam_type: CamType = CamType.BINARY,
        data_width: int = 32,
        name: Optional[str] = None,
    ) -> None:
        name = name if name is not None else type(self).__name__
        super().__init__(1, data_width, name, slice_names=(f"{name}.dsp",))
        self.cam_type = cam_type
        self.reset_state()

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        super().reset_state()
        self.write_enable = False
        self.write_entry: Optional[CamEntry] = None
        self.search_key = 0
        self.clear = False

    def compute(self) -> None:
        self._broadcast(self.search_key)
        if self.clear:
            updates = self._drive_cells(clear=np.ones(1, dtype=bool))
            updates.update(clear=False, write_enable=False, write_entry=None)
        elif self.write_enable:
            entry = self.write_entry
            if entry is None:
                raise ConfigError(f"{self.name}: write asserted without an entry")
            updates = self._drive_cells(0, (entry,))
            updates.update(write_enable=False, write_entry=None)
        else:
            updates = self._drive_cells()
        if updates:
            self.schedule(**updates)

    # ------------------------------------------------------------------
    def match_now(self) -> bool:
        """Match bit for the key latched two edges ago (combinational)."""
        return bool(self.match_bits()[0])

    @property
    def occupied(self) -> bool:
        """The occupancy flip-flop."""
        return bool(self.occupied_bits[0])

    @property
    def stored_value(self) -> int:
        """The word currently held in the A:B registers."""
        return int(self.column.stored_ab[0])

    @property
    def stored_entry(self) -> Optional[CamEntry]:
        """Golden-model view of the stored entry, if occupied."""
        return self._entries(1)[0]

    @staticmethod
    def resources() -> ResourceVector:
        """Cell cost (Table V): exactly one DSP, no LUT/BRAM.

        The occupancy/mask flip-flops are absorbed into the block
        control-logic cost model, matching how the paper accounts them.
        """
        return ResourceVector(dsp=1)

    #: Cycles from presenting a write to the data being stored.
    UPDATE_LATENCY = 1
    #: Cycles from presenting a key to the registered match bit.
    SEARCH_LATENCY = 2
