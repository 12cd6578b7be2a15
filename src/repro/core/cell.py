"""The DSP-based CAM cell (paper section III-A, figure 2).

One cell is one DSP48E2 slice in logic mode computing
``O = (A:B) XOR C``: the A:B register pair holds the stored word, the C
register latches the broadcast search key, and the pattern detector
reports a (masked) all-zero XOR result as a match. A per-entry ignore
mask register alongside the slice realises the TCAM/RMCAM behaviour of
Table II; an occupancy flip-flop gates matches so empty cells never hit.

Cells are modelled as a :class:`CellArray`: N cells are a slice range
``[offset, offset + N)`` of one :class:`repro.dsp.DspColumn`, and the
occupancy flip-flops and ignore masks are arrays beside it, so a write
beat, a broadcast and a match are array operations. A CAM unit builds
one column over every slice of its blocks and each block drives and
reads its own range of it; a standalone block, or a :class:`CamCell`
(a cell array of one), builds a column of its own size.

Timing (Table V): update latency 1 cycle, search latency 2 cycles
(C register, then ALU result into the P register), cost exactly 1 DSP.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.mask import CamEntry, entry_views, width_mask
from repro.core.types import CamType
from repro.dsp import (
    ALL_ONES,
    B_WIDTH,
    CAM_ALUMODE,
    CAM_OPMODE,
    DspColumn,
    SliceRegisters,
    cam_cell_attributes,
    mask_for,
)
from repro.dsp.primitives import DSP_WIDTH
from repro.errors import ConfigError
from repro.fabric.resources import ResourceVector
from repro.sim.component import Component

_ALUMODE = int(CAM_ALUMODE)
_B_MASK = mask_for(B_WIDTH)


def cam_column(
    size: int, data_width: int, name: str,
    slice_names: Optional[Sequence[str]] = None,
) -> DspColumn:
    """A column of ``size`` CAM-cell slices for ``data_width``-bit words."""
    if not 1 <= data_width <= DSP_WIDTH:
        raise ConfigError(
            f"data width must be 1..{DSP_WIDTH}, got {data_width}"
        )
    return DspColumn(size, cam_cell_attributes(mask=width_mask(data_width)),
                     name=name, slice_names=slice_names)


def match_lines(
    p: np.ndarray, occupied: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Match line of every cell: the registered XOR result ``p`` under
    each stored entry's ignore mask -- the "post-processing after the
    XOR operation" of section III-A. Empty cells never match."""
    return occupied & ((p & ~masks) == 0)


def tie_off(column: DspColumn) -> None:
    """Drive the pins a CAM column ties every cycle: every slice in the
    CAM mode, and the write enables low until a cell array raises its
    range. The column's owner calls this before any cell array drives
    the column in that cycle."""
    column.opmode = CAM_OPMODE
    column.alumode = _ALUMODE
    column.ce_a = column.ce_b = False


class CellArray(Component):
    """N CAM cells: a slice range of a DSP column plus occupancy and
    ignore-mask arrays.

    The cells are slices ``[offset, offset + size)`` of :attr:`column`.
    Without a ``column`` the array builds one of its own size (named
    ``slice_names``) as its child and ties it off itself; with one, the
    column's owner adds it to the tree after every cell array driving
    it and ties it off each cycle (:func:`tie_off`).

    State (arrays indexed by cell, replaced at each edge, never mutated
    in place):

    - :attr:`occupied_bits` -- the occupancy flip-flops.
    - :attr:`entry_masks` -- each stored entry's ignore mask.
    - the stored words and the latched key live in :attr:`column`.

    Subclasses drive the cells from their own compute phase:
    :meth:`_broadcast` puts a key on every C port of the range,
    :meth:`_drive_cells` drives the range's write port and returns the
    cell-state updates to schedule, and :meth:`match_bits` reads every
    match line of the range.
    """

    def __init__(
        self,
        size: int,
        data_width: int,
        name: str,
        slice_names: Optional[Sequence[str]] = None,
        column: Optional[DspColumn] = None,
        offset: int = 0,
    ) -> None:
        super().__init__(name)
        self._owns_column = column is None
        if column is None:
            column = self.add_child(
                cam_column(size, data_width, f"{self.name}.column",
                           slice_names)
            )
        elif not 0 <= offset <= column.size - size:
            raise ConfigError(
                f"{self.name}: cells [{offset}, {offset + size}) do not fit "
                f"a column of {column.size} slices"
            )
        self.size = size
        self.data_width = data_width
        self.column = column
        self.offset = offset
        self._cells = slice(offset, offset + size)

    def reset_state(self) -> None:
        self.occupied_bits = np.zeros(self.size, dtype=bool)
        self.entry_masks = np.full(self.size, width_mask(self.data_width),
                                   dtype=np.uint64)

    # ------------------------------------------------------------------
    def _broadcast(self, key: int) -> None:
        """Search logic: one key on every cell's C port (held until the
        next broadcast)."""
        self.column.c[self._cells] = key & ALL_ONES

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
        if self._owns_column:
            tie_off(column)
        if not entries:
            if clear is None:
                return {}
            return {"occupied_bits": self.occupied_bits & ~clear}
        stop = base + len(entries)
        values = np.array([entry.value & ALL_ONES for entry in entries],
                          dtype=np.uint64)
        start, end = self.offset + base, self.offset + stop
        column.a[start:end] = values >> B_WIDTH
        column.b[start:end] = values & _B_MASK
        write = column.ce_a
        if write is False:  # the column's first write beat this cycle
            write = np.zeros(column.size, dtype=bool)
            column.ce_a = column.ce_b = write
        write[start:end] = True
        masks = self.entry_masks.copy()
        masks[base:stop] = [entry.mask & ALL_ONES for entry in entries]
        occupied = self.occupied_bits.copy()
        occupied[base:stop] = True
        if clear is not None:
            occupied &= ~clear
        return {"occupied_bits": occupied, "entry_masks": masks}

    # ------------------------------------------------------------------
    def match_bits(self) -> np.ndarray:
        """Every cell's match bit for the key latched two edges ago
        (combinational, :func:`match_lines` over the cell range)."""
        return match_lines(self.column.p[self._cells], self.occupied_bits,
                           self.entry_masks)

    def slot_arrays(self, stop: int):
        """Cells ``[0, stop)`` as int64 ``values`` (the A:B words) and
        ``cares`` (the compared bits, ``~mask``) plus the occupancy
        flip-flops."""
        start = self.offset
        values = self.column.stored_ab[start:start + stop].astype(np.int64)
        cares = (ALL_ONES ^ self.entry_masks[:stop]).astype(np.int64)
        return values, cares, self.occupied_bits[:stop]

    def registers(self, cell: int) -> SliceRegisters:
        """The DSP registers of cell ``cell`` as plain Python values."""
        if not 0 <= cell < self.size:
            raise IndexError(f"{self.name}: no cell {cell} of {self.size}")
        return self.column.registers(self.offset + cell)


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
        return int(self.column.stored_ab[self.offset])

    @property
    def stored_entry(self) -> Optional[CamEntry]:
        """Golden-model view of the stored entry, if occupied."""
        return entry_views(*self.slot_arrays(1), self.data_width)[0]

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
