"""Wide-word CAM: entries wider than one DSP slice (extension).

A DSP48E2 stores at most 48 bits, which caps the paper's entry width.
Real workloads want more -- IPv6 five-tuples, 128-bit hashes -- and the
architecture composes naturally: a W-bit entry is split into
``k = ceil(W / 48)`` fragments held at the *same address* in ``k``
parallel lanes (each lane a full CAM unit); a search broadcasts each
key fragment to its lane and a W-bit match is the AND of the per-lane
match vectors. Latency is unchanged (lanes run in lockstep), resource
cost is ``k`` times one lane, and every lane reuses the verified
cell/block/unit machinery.

This module is an extension beyond the paper (DESIGN.md section 5);
its lanes are ordinary unit sessions from :func:`repro.open_session`
(cycle-accurate by default), so wide searches still cost genuine
simulated cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import open_session
from repro.core.config import unit_for_entries
from repro.core.types import CamBackend, CamType, Encoding, SearchResult
from repro.dsp.primitives import DSP_WIDTH, check_fits, mask_for
from repro.errors import ConfigError
from repro.fabric.resources import ResourceVector, total

#: Fragment width: one DSP slice's storage.
LANE_WIDTH = DSP_WIDTH


@dataclass(frozen=True)
class WideEntry:
    """One wide stored word: value plus ignore-mask, both ``width`` bits."""

    value: int
    mask: int
    width: int

    def matches(self, key: int) -> bool:
        full = mask_for(self.width)
        return ((self.value ^ key) & ~self.mask & full) == 0


def wide_binary(value: int, width: int) -> WideEntry:
    """Exact-match wide entry."""
    check_fits(value, width, "wide value")
    return WideEntry(value=value, mask=0, width=width)


def wide_ternary(value: int, dont_care: int, width: int) -> WideEntry:
    """Wide entry with don't-care bits."""
    check_fits(value, width, "wide value")
    check_fits(dont_care, width, "wide don't-care mask")
    return WideEntry(value=value, mask=dont_care, width=width)


class WideCamSession:
    """A CAM for keys wider than 48 bits, built from parallel lanes."""

    def __init__(
        self,
        capacity: int,
        key_width: int,
        *,
        block_size: int = 64,
        bus_width: int = 512,
        default_groups: int = 1,
        engine: str = "cycle",
        **session_kwargs,
    ) -> None:
        if key_width <= LANE_WIDTH:
            raise ConfigError(
                f"key width {key_width} fits one DSP slice; use open_session"
            )
        self.key_width = key_width
        self.num_lanes = -(-key_width // LANE_WIDTH)
        self._lane_widths = self._fragment_widths(key_width)
        self.lanes: List[CamBackend] = [
            open_session(
                unit_for_entries(
                    capacity,
                    block_size=block_size,
                    data_width=lane_width,
                    bus_width=bus_width,
                    cam_type=CamType.TERNARY,
                    default_groups=default_groups,
                ),
                name=f"lane{index}",
                engine=engine,
                **session_kwargs,
            )
            for index, lane_width in enumerate(self._lane_widths)
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _fragment_widths(key_width: int) -> List[int]:
        widths = []
        remaining = key_width
        while remaining > 0:
            widths.append(min(LANE_WIDTH, remaining))
            remaining -= LANE_WIDTH
        return widths

    def _fragments(self, value: int) -> List[int]:
        out = []
        for width in self._lane_widths:
            out.append(value & mask_for(width))
            value >>= width
        return out

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.lanes[0].capacity

    @property
    def occupancy(self) -> int:
        return self.lanes[0].occupancy

    @property
    def search_latency(self) -> int:
        return max(lane.search_latency for lane in self.lanes)

    @property
    def cycle(self) -> int:
        """Lockstep cycle counter (all lanes tick together)."""
        return self.lanes[0].cycle

    def resources(self) -> ResourceVector:
        """Cost of all lanes together (k x one unit)."""
        return total(lane.resources() for lane in self.lanes)

    # ------------------------------------------------------------------
    def _coerce(self, word: Union[int, WideEntry]) -> WideEntry:
        if isinstance(word, WideEntry):
            if word.width != self.key_width:
                raise ConfigError(
                    f"entry width {word.width} != CAM key width "
                    f"{self.key_width}"
                )
            return word
        return wide_binary(int(word), self.key_width)

    def update(self, words: Sequence[Union[int, WideEntry]]) -> None:
        """Store wide words (same address in every lane), each lane's
        fragments as one ``(value, care)`` row array."""
        entries = [self._coerce(word) for word in words]
        values = [self._fragments(entry.value) for entry in entries]
        masks = [self._fragments(entry.mask) for entry in entries]
        for lane_index, lane in enumerate(self.lanes):
            care = mask_for(self._lane_widths[lane_index])
            lane.update(np.array(
                [(value[lane_index], ~mask[lane_index] & care)
                 for value, mask in zip(values, masks)],
                dtype=np.int64).reshape(-1, 2))

    def search(self, keys: Sequence[int]) -> List[SearchResult]:
        """Search wide keys; a hit requires every lane to agree."""
        keys = [int(key) for key in keys]
        for key in keys:
            check_fits(key, self.key_width, "wide key")
        per_lane: List[List[SearchResult]] = []
        for lane_index, lane in enumerate(self.lanes):
            lane_keys = [self._fragments(key)[lane_index] for key in keys]
            per_lane.append(lane.search(lane_keys))
        merged = []
        for key_index, key in enumerate(keys):
            vector = None
            for lane_results in per_lane:
                lane_vector = lane_results[key_index].match_vector
                vector = lane_vector if vector is None else vector & lane_vector
            merged.append(SearchResult.from_vector(
                key, vector or 0, Encoding.PRIORITY
            ))
        return merged

    def search_one(self, key: int) -> SearchResult:
        return self.search([key])[0]

    def contains(self, key: int) -> bool:
        return self.search_one(key).hit

    def reset(self) -> None:
        for lane in self.lanes:
            lane.reset()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture all lanes as one ``wide`` snapshot (children are the
        per-lane unit snapshots, in lane order)."""
        from repro.service.snapshot import CamSnapshot

        return CamSnapshot(
            kind="wide",
            meta={
                "key_width": self.key_width,
                "capacity": self.capacity,
                "lane_widths": list(self._lane_widths),
            },
            children=[lane.snapshot() for lane in self.lanes],
        )

    def restore(self, snapshot) -> None:
        """Restore every lane from a compatible ``wide`` snapshot."""
        from repro.errors import SnapshotError

        if snapshot.kind != "wide":
            raise SnapshotError(
                f"cannot restore a {snapshot.kind!r} snapshot into a "
                "wide CAM"
            )
        if snapshot.meta.get("key_width") != self.key_width:
            raise SnapshotError(
                f"snapshot key width {snapshot.meta.get('key_width')} != "
                f"CAM key width {self.key_width}"
            )
        if len(snapshot.children) != self.num_lanes:
            raise SnapshotError(
                f"snapshot carries {len(snapshot.children)} lanes, "
                f"this CAM has {self.num_lanes}"
            )
        for lane, child in zip(self.lanes, snapshot.children):
            lane.restore(child)
