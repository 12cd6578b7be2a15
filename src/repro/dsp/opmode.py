"""OPMODE / ALUMODE encodings of the DSP48E2 slice (UG579).

The DSP48E2 ALU computes, in arithmetic mode::

    P = Z (+/-) (W + X + Y + CIN)

and in logic mode a bitwise function of ``X`` and ``Z`` selected by
ALUMODE with the Y multiplexer forced to all-zeros or all-ones. The CAM
cell uses exactly one configuration -- ``X = A:B``, ``Z = C``,
``ALUMODE = XOR`` -- but the full mux/ALU decode is modelled so the
slice is reusable (and testable) beyond the CAM.

Field layout (UG579 v1.9.1):

- ``OPMODE[1:0]``  -- X multiplexer
- ``OPMODE[3:2]``  -- Y multiplexer
- ``OPMODE[6:4]``  -- Z multiplexer
- ``OPMODE[8:7]``  -- W multiplexer
- ``ALUMODE[3:0]`` -- ALU function
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError
from repro.dsp.primitives import DSP_WIDTH, mask_for

ALL_ONES = mask_for(DSP_WIDTH)


class XMux(enum.IntEnum):
    """OPMODE[1:0] -- X multiplexer selection."""

    ZERO = 0b00
    M = 0b01
    P = 0b10
    AB = 0b11  # the A:B concatenation


class YMux(enum.IntEnum):
    """OPMODE[3:2] -- Y multiplexer selection."""

    ZERO = 0b00
    M = 0b01
    ALL_ONES = 0b10
    C = 0b11


class ZMux(enum.IntEnum):
    """OPMODE[6:4] -- Z multiplexer selection."""

    ZERO = 0b000
    PCIN = 0b001
    P = 0b010
    C = 0b011
    P_MACC = 0b100
    PCIN_SHIFT17 = 0b101
    P_SHIFT17 = 0b110


class WMux(enum.IntEnum):
    """OPMODE[8:7] -- W multiplexer selection."""

    ZERO = 0b00
    P = 0b01
    RND = 0b10
    C = 0b11


class AluMode(enum.IntEnum):
    """ALUMODE[3:0] -- ALU function (UG579 table 2-7 / 2-8).

    Arithmetic codes:

    - ``ADD``  : ``P = Z + (W + X + Y + CIN)``
    - ``SUB``  : ``P = Z - (W + X + Y + CIN)``

    Logic codes (require ``Y = ZERO`` or ``Y = ALL_ONES``); the resulting
    function of X and Z is given by :func:`logic_function`.
    """

    ADD = 0b0000
    SUB = 0b0011
    NOT_ADD = 0b0001  # -Z + (W+X+Y+CIN) - 1
    NOT_SUB = 0b0010  # -(Z + W + X + Y + CIN) - 1
    XOR = 0b0100
    XNOR = 0b0101
    AND = 0b1100
    NAND = 0b1110


#: (ALUMODE, YMux) -> two-input logic function name, per UG579 Table 2-8.
_LOGIC_TABLE = {
    (AluMode.XOR, YMux.ZERO): "xor",
    (AluMode.XOR, YMux.ALL_ONES): "xnor",
    (AluMode.XNOR, YMux.ZERO): "xnor",
    (AluMode.XNOR, YMux.ALL_ONES): "xor",
    (AluMode.AND, YMux.ZERO): "and",
    (AluMode.AND, YMux.ALL_ONES): "or",
    (AluMode.NAND, YMux.ZERO): "nand",
    (AluMode.NAND, YMux.ALL_ONES): "nor",
}


def pack_opmode(x: XMux, y: YMux, z: ZMux, w: WMux = WMux.ZERO) -> int:
    """Assemble the 9-bit OPMODE word from its mux fields."""
    return (int(w) << 7) | (int(z) << 4) | (int(y) << 2) | int(x)


def unpack_opmode(opmode: int) -> "tuple[XMux, YMux, ZMux, WMux]":
    """Split a 9-bit OPMODE word into mux fields, validating each."""
    if not 0 <= opmode < (1 << 9):
        raise ConfigError(f"OPMODE must be a 9-bit value, got {opmode:#x}")
    try:
        x = XMux(opmode & 0b11)
        y = YMux((opmode >> 2) & 0b11)
        z = ZMux((opmode >> 4) & 0b111)
        w = WMux((opmode >> 7) & 0b11)
    except ValueError as exc:
        raise ConfigError(f"OPMODE {opmode:#05x} has a reserved field: {exc}")
    return x, y, z, w


def is_logic_mode(alumode: AluMode) -> bool:
    """True when ALUMODE selects the two-input logic unit."""
    return alumode in (AluMode.XOR, AluMode.XNOR, AluMode.AND, AluMode.NAND)


def logic_function(alumode: AluMode, y: YMux) -> str:
    """Name of the X-op-Z logic function for a logic-mode ALUMODE."""
    try:
        return _LOGIC_TABLE[(alumode, y)]
    except KeyError:
        raise ConfigError(
            f"ALUMODE {alumode.name} with Y mux {y.name} is not a valid "
            "logic-unit configuration (Y must be ZERO or ALL_ONES)"
        )


def apply_logic(function: str, x: int, z: int) -> int:
    """Evaluate a named two-input logic function over 48-bit vectors."""
    if function == "xor":
        return (x ^ z) & ALL_ONES
    if function == "xnor":
        return ~(x ^ z) & ALL_ONES
    if function == "and":
        return x & z & ALL_ONES
    if function == "or":
        return (x | z) & ALL_ONES
    if function == "nand":
        return ~(x & z) & ALL_ONES
    if function == "nor":
        return ~(x | z) & ALL_ONES
    raise ConfigError(f"unknown logic function {function!r}")


#: OPMODE used by the CAM cell: X = A:B, Y = 0, Z = C, W = 0.
CAM_OPMODE = pack_opmode(XMux.AB, YMux.ZERO, ZMux.C, WMux.ZERO)
#: ALUMODE used by the CAM cell: bitwise XOR.
CAM_ALUMODE = AluMode.XOR
