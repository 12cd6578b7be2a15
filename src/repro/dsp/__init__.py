"""Functional models of the Xilinx DSP48E2 slice (UG579).

The CAM architecture of the paper repurposes DSP slices as
storage-plus-compare cells. This package provides two models of the
slice plus the OPMODE/ALUMODE encodings and bit-vector primitives:

- :class:`DSP48E2` -- one slice, the full UG579 dataflow (multiplier,
  pre-adder, SIMD ALU, cascade, pattern detector).
- :class:`DspColumn` -- N slices that share attributes and one mode,
  stepped as array operations. A CAM unit in :mod:`repro.core` has one
  column over all of its slices, and each block drives and reads its
  own slice range of it. It models the slice as the CAM configures it
  and is fuzzed against N scalar slices.
"""

from repro.dsp.attributes import Dsp48Attributes, cam_cell_attributes
from repro.dsp.column import DspColumn
from repro.dsp.dsp48e2 import DSP48E2, MULT_A_WIDTH, SliceRegisters
from repro.dsp.opmode import (
    ALL_ONES,
    CAM_ALUMODE,
    CAM_OPMODE,
    AluMode,
    WMux,
    XMux,
    YMux,
    ZMux,
    pack_opmode,
    unpack_opmode,
)
from repro.dsp.primitives import (
    A_WIDTH,
    B_WIDTH,
    DSP_WIDTH,
    clog2,
    is_power_of_two,
    mask_for,
    pack_words,
    popcount,
    split_ab,
    truncate,
)

__all__ = [
    "ALL_ONES",
    "A_WIDTH",
    "AluMode",
    "B_WIDTH",
    "CAM_ALUMODE",
    "CAM_OPMODE",
    "DSP48E2",
    "DSP_WIDTH",
    "Dsp48Attributes",
    "DspColumn",
    "MULT_A_WIDTH",
    "SliceRegisters",
    "WMux",
    "XMux",
    "YMux",
    "ZMux",
    "cam_cell_attributes",
    "clog2",
    "is_power_of_two",
    "mask_for",
    "pack_opmode",
    "pack_words",
    "popcount",
    "split_ab",
    "truncate",
    "unpack_opmode",
]
