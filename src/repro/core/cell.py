"""The DSP-based CAM cell (paper section III-A, figure 2).

One cell is one DSP48E2 slice in logic mode computing
``O = (A:B) XOR C``: the A:B register pair holds the stored word, the C
register latches the broadcast search key, and the pattern detector
reports a (masked) all-zero XOR result as a match. A per-entry ignore
mask register alongside the slice realises the TCAM/RMCAM behaviour of
Table II; an occupancy flip-flop gates matches so empty cells never hit.

Timing (Table V): update latency 1 cycle, search latency 2 cycles
(C register, then ALU result into the P register), cost exactly 1 DSP.
"""

from __future__ import annotations

from typing import Optional

from repro.core.mask import CamEntry, width_mask
from repro.core.types import CamType
from repro.dsp import (
    ALL_ONES,
    CAM_ALUMODE,
    CAM_OPMODE,
    DSP48E2,
    cam_cell_attributes,
    split_ab,
)
from repro.dsp.primitives import DSP_WIDTH
from repro.errors import ConfigError
from repro.fabric.resources import ResourceVector
from repro.sim.component import Component

_ALUMODE = int(CAM_ALUMODE)


class CamCell(Component):
    """One CAM storage-and-compare cell backed by a DSP48E2 slice.

    Input ports (driven by the parent block during its compute phase):

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
        super().__init__(name)
        if not 1 <= data_width <= DSP_WIDTH:
            raise ConfigError(
                f"data width must be 1..{DSP_WIDTH}, got {data_width}"
            )
        self.cam_type = cam_type
        self.data_width = data_width
        self.dsp = self.add_child(
            DSP48E2(cam_cell_attributes(mask=width_mask(data_width)),
                    name=f"{self.name}.dsp")
        )
        self.reset_state()

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        self.write_enable = False
        self.write_entry: Optional[CamEntry] = None
        self.search_key = 0
        self.clear = False
        self.occupied = False
        self._entry_mask = width_mask(self.data_width)

    def compute(self) -> None:
        dsp = self.dsp
        dsp.opmode = CAM_OPMODE
        dsp.alumode = _ALUMODE
        dsp.c = self.search_key & ALL_ONES
        dsp.ce_c = True
        dsp.ce_p = True
        if self.clear:
            self.schedule(occupied=False, clear=False,
                          write_enable=False, write_entry=None)
            dsp.ce_a = False
            dsp.ce_b = False
            return
        if self.write_enable:
            entry = self.write_entry
            if entry is None:
                raise ConfigError(f"{self.name}: write asserted without an entry")
            a, b = split_ab(entry.value)
            dsp.a = a
            dsp.b = b
            dsp.ce_a = True
            dsp.ce_b = True
            self.schedule(
                occupied=True,
                _entry_mask=entry.mask,
                write_enable=False,
                write_entry=None,
            )
        else:
            dsp.ce_a = False
            dsp.ce_b = False

    # ------------------------------------------------------------------
    def match_now(self) -> bool:
        """Match bit for the key latched two edges ago (combinational).

        Reads the registered XOR result (the DSP P output) and applies
        the stored entry's ignore mask -- the "post-processing after the
        XOR operation" of section III-A. Empty cells never match.
        """
        if not self.occupied:
            return False
        residue = self.dsp.p & ~self._entry_mask & ALL_ONES
        return residue == 0

    @property
    def stored_value(self) -> int:
        """The word currently held in the A:B registers."""
        return self.dsp.stored_ab

    @property
    def stored_entry(self) -> Optional[CamEntry]:
        """Golden-model view of the stored entry, if occupied."""
        if not self.occupied:
            return None
        return CamEntry(
            value=self.stored_value,
            mask=self._entry_mask,
            width=self.data_width,
        )

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
