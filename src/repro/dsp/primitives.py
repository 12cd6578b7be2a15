"""Bit-level helpers shared by the DSP48E2 model and the CAM core.

All values are plain non-negative Python integers interpreted as
fixed-width bit vectors; helpers here keep widths explicit so that the
48-bit DSP datapath behaves exactly like the silicon (wrap-around
arithmetic, field packing).
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError

#: Width of the DSP48E2 ALU datapath and of the A:B / C operands.
DSP_WIDTH = 48
#: Width of the A input port (upper part of the A:B concatenation).
A_WIDTH = 30
#: Width of the B input port (lower part of the A:B concatenation).
B_WIDTH = 18


def mask_for(width: int) -> int:
    """All-ones mask of ``width`` bits."""
    if width < 0:
        raise ConfigError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Keep the low ``width`` bits of ``value`` (hardware wrap-around)."""
    return value & mask_for(width)


def check_fits(value: int, width: int, what: str = "value") -> int:
    """Validate that ``value`` is representable in ``width`` unsigned bits."""
    if value < 0:
        raise ConfigError(f"{what} must be non-negative, got {value}")
    if value >> width:
        raise ConfigError(
            f"{what} 0x{value:x} does not fit in {width} bits"
        )
    return value


def split_ab(value: int) -> "tuple[int, int]":
    """Split a 48-bit word into the (A, B) register pair."""
    value = truncate(value, DSP_WIDTH)
    return value >> B_WIDTH, value & mask_for(B_WIDTH)


def bit(value: int, index: int) -> int:
    """Extract a single bit."""
    return (value >> index) & 1


def popcount(value: int) -> int:
    """Number of set bits."""
    return bin(value).count("1")


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def clog2(value: int) -> int:
    """Ceiling log2, i.e. address bits needed for ``value`` entries."""
    if value <= 0:
        raise ConfigError(f"clog2 needs a positive value, got {value}")
    return (value - 1).bit_length()


def pack_words(words: Iterable[int], word_width: int) -> int:
    """Pack words little-endian (first word in the low bits) into one int."""
    packed = 0
    for index, word in enumerate(words):
        check_fits(word, word_width, f"word[{index}]")
        packed |= word << (index * word_width)
    return packed
