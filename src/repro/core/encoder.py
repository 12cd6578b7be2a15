"""Result encoders for the CAM block output (Table III "Result Encoding").

The encoder is combinational logic that condenses the per-cell match
bits into a bus word; the block registers its output (and optionally
buffers it once more for timing). Four schemes are provided; the
triangle-counting accelerator uses PRIORITY, set-intersection style
workloads can use COUNT.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import Encoding, SearchResult
from repro.errors import ConfigError


def pack_match_bits(bits: Sequence[bool]) -> int:
    """Fold per-cell match booleans (cell 0 first) into a bit vector."""
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class ResultEncoder:
    """Combinational result encoder for one CAM block.

    Parameters
    ----------
    encoding:
        The output scheme; see :class:`repro.core.types.Encoding`.
    size:
        Number of cells in the block (determines address width).
    """

    def __init__(self, encoding: Encoding, size: int) -> None:
        if not isinstance(encoding, Encoding):
            raise ConfigError(f"encoding must be an Encoding, got {encoding!r}")
        if size < 1:
            raise ConfigError(f"encoder size must be >= 1, got {size}")
        self.encoding = encoding
        self.size = size

    def encode(self, key: int, match_bits: Sequence[bool]) -> SearchResult:
        """Build the :class:`SearchResult` for one search."""
        if len(match_bits) != self.size:
            raise ConfigError(
                f"expected {self.size} match bits, got {len(match_bits)}"
            )
        vector = pack_match_bits(match_bits)
        return SearchResult.from_vector(key, vector, self.encoding)

    def bus_value(self, result: SearchResult) -> int:
        """Serialise a result for the block output bus."""
        return result.encoded(self.size)

    @property
    def output_width(self) -> int:
        """Width in bits of the encoded output."""
        if self.encoding is Encoding.ONE_HOT:
            return self.size
        address_bits = max(1, (self.size - 1).bit_length())
        if self.encoding is Encoding.COUNT:
            return address_bits + 1
        if self.encoding is Encoding.PRIORITY:
            return address_bits + 1  # address + hit flag
        return address_bits + 2  # BINARY: address + hit + multi-match
