"""MASK semantics for the three CAM types (paper Table II).

A CAM entry is a ``(value, mask)`` pair where mask bit 1 means *ignore
this bit during comparison* -- the DSP48E2 pattern-detector convention.
Bits above the configured data width are always masked out ("the mask is
also used for the data bit width control").

- **BCAM**: all data bits compared; mask covers only the unused width.
- **TCAM**: "don't care" positions are additionally masked.
- **RMCAM**: an aligned power-of-two range ``[base, base + 2^k)`` is
  encoded by masking the low ``k`` bits; the paper notes the DSP mask
  can only express ranges whose extent and alignment are powers of two,
  and :func:`range_entry` enforces exactly that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.types import CamType
from repro.dsp import ALL_ONES
from repro.dsp.primitives import DSP_WIDTH, check_fits, is_power_of_two, mask_for
from repro.errors import ConfigError, MaskError


def width_mask(data_width: int) -> int:
    """Mask (ignore) every bit at or above ``data_width``."""
    if not 1 <= data_width <= DSP_WIDTH:
        raise MaskError(f"data width must be in 1..{DSP_WIDTH}, got {data_width}")
    return mask_for(DSP_WIDTH) ^ mask_for(data_width)


@dataclass(frozen=True)
class CamEntry:
    """One stored CAM word: a value plus its ignore-mask.

    ``mask`` always includes the unused-width bits; use the
    constructors (:func:`binary_entry`, :func:`ternary_entry`,
    :func:`range_entry`) rather than building instances by hand.
    """

    value: int
    mask: int
    width: int

    def matches(self, key: int) -> bool:
        """Golden-model comparison: masked equality against ``key``."""
        return ((self.value ^ key) & ~self.mask & ALL_ONES) == 0

    @property
    def care_bits(self) -> int:
        """Bit positions actually compared (within the data width)."""
        return ~self.mask & mask_for(self.width)


def binary_entry(value: int, data_width: int) -> CamEntry:
    """Exact-match (BCAM) entry: every data bit is compared."""
    check_fits(value, data_width, "BCAM value")
    return CamEntry(value=value, mask=width_mask(data_width), width=data_width)


def entry_rows(words, data_width: int, cam_type: CamType) -> np.ndarray:
    """A write as one int64 ``(n, 2)`` array of ``(value, care)`` rows,
    ``care`` being the compared bits (``~mask`` at the DSP width).

    Takes ints or ``np.integer`` values (binary CAMs only; full care,
    range-checked in one vectorized pass that raises
    :func:`binary_entry`'s error for the first word that does not fit),
    a 1-D integer array, :class:`CamEntry` values, or ``(n, 2)`` int64
    rows, which come back as they are: the form every layer below the
    public edge passes down.
    """
    values = None
    if isinstance(words, np.ndarray) and words.ndim == 1:
        words = words.tolist()  # exact ints: a cast could wrap silently
    if not isinstance(words, np.ndarray):
        words = words if isinstance(words, (list, tuple)) else list(words)
        if not all(issubclass(kind, (int, np.integer))
                   for kind in set(map(type, words))):
            words = np.array([_entry_row(word, data_width, cam_type)
                              for word in words], dtype=np.int64)
        else:
            try:
                values = np.array(words, dtype=np.int64)
            except OverflowError:  # a word at or above 2^63
                values = np.array([-1])
    elif words.shape[1:] != (2,) or words.dtype != np.int64:
        raise ConfigError(
            "update words must be ints, entries or (n, 2) int64 rows, "
            f"got a {words.dtype} array of shape {words.shape}"
        )
    if not len(words):
        raise ConfigError("update needs at least one word")
    if values is None:
        return words
    if cam_type is not CamType.BINARY:
        raise ConfigError(
            "raw integers are only accepted for binary CAMs; build "
            "CamEntry values for ternary/range configurations"
        )
    if np.count_nonzero(values >> data_width):  # negative or too wide
        for word in words:
            binary_entry(int(word), data_width)
    rows = np.empty((values.size, 2), dtype=np.int64)
    rows[:, 0] = values
    rows[:, 1] = mask_for(data_width)
    return rows


def _entry_row(word, data_width: int, cam_type: CamType):
    if isinstance(word, CamEntry):
        return word.value & ALL_ONES, ~word.mask & ALL_ONES
    if isinstance(word, (int, np.integer)):
        return entry_rows([word], data_width, cam_type).tolist()[0]
    raise ConfigError(
        f"update words must be int or CamEntry, got {type(word).__name__}"
    )


def entry_views(values: np.ndarray, cares: np.ndarray, live: np.ndarray,
                data_width: int) -> List[Optional[CamEntry]]:
    """Golden view of stored slots: a ``data_width``-bit
    :class:`CamEntry` per live ``(value, care)`` slot, ``None`` for a
    hole."""
    return [CamEntry(value=value, mask=ALL_ONES ^ care, width=data_width)
            if alive else None
            for value, care, alive in zip(values.tolist(), cares.tolist(),
                                          live.tolist())]


def ternary_entry(value: int, dont_care: int, data_width: int) -> CamEntry:
    """TCAM entry: bits set in ``dont_care`` match anything."""
    check_fits(value, data_width, "TCAM value")
    check_fits(dont_care, data_width, "TCAM don't-care mask")
    return CamEntry(
        value=value,
        mask=width_mask(data_width) | dont_care,
        width=data_width,
    )


def ternary_entry_from_pattern(pattern: str, data_width: int) -> CamEntry:
    """TCAM entry from a string like ``"10XX1"`` (MSB first).

    Characters: ``0``/``1`` are compared bits, ``x``/``X`` are don't
    cares, ``_`` is an ignored separator.
    """
    cleaned = pattern.replace("_", "")
    if not cleaned:
        raise MaskError("empty TCAM pattern")
    if len(cleaned) > data_width:
        raise MaskError(
            f"pattern {pattern!r} is wider ({len(cleaned)}) than the data "
            f"width ({data_width})"
        )
    value = 0
    dont_care = 0
    for char in cleaned:
        value <<= 1
        dont_care <<= 1
        if char == "1":
            value |= 1
        elif char in ("x", "X"):
            dont_care |= 1
        elif char != "0":
            raise MaskError(f"invalid TCAM pattern character {char!r}")
    return ternary_entry(value, dont_care, data_width)


def range_entry(start: int, end: int, data_width: int) -> CamEntry:
    """RMCAM entry matching keys in the inclusive range [start, end].

    The hardware restriction (paper section III-A): the range extent
    must be a power of two and the start must be aligned to it, because
    the match is expressed purely by masking low bits.
    """
    check_fits(start, data_width, "range start")
    check_fits(end, data_width, "range end")
    if end < start:
        raise MaskError(f"range end ({end}) below start ({start})")
    extent = end - start + 1
    if not is_power_of_two(extent):
        raise MaskError(
            f"range [{start}, {end}] has extent {extent}, which is not a "
            "power of two; the DSP MASK cannot express it"
        )
    if start % extent:
        raise MaskError(
            f"range start {start} is not aligned to the range extent {extent}"
        )
    low_bits = extent.bit_length() - 1
    return CamEntry(
        value=start,
        mask=width_mask(data_width) | mask_for(low_bits),
        width=data_width,
    )


def entry_for(cam_type, data_width: int, *args) -> CamEntry:
    """Dispatch an entry constructor by :class:`repro.core.CamType`."""
    if cam_type is CamType.BINARY:
        (value,) = args
        return binary_entry(value, data_width)
    if cam_type is CamType.TERNARY:
        value, dont_care = args
        return ternary_entry(value, dont_care, data_width)
    if cam_type is CamType.RANGE:
        start, end = args
        return range_entry(start, end, data_width)
    raise MaskError(f"unknown CAM type {cam_type!r}")
