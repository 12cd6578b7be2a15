"""Occupancy and balance introspection for CAM units.

A CAM embedded in an accelerator is managed blind -- the kernel only
sees update acknowledgements and search results. This module provides
the observability layer a system integrator needs: per-block fill,
per-group balance, invalidation holes from delete-by-content, and a
utilisation summary, all read from the golden-state side of the models
(no simulation cycles consumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.core.unit import CamUnit


@dataclass(frozen=True)
class BlockStats:
    """One block's occupancy picture."""

    block_id: int
    group: int
    size: int
    fill: int
    live: int

    @property
    def holes(self) -> int:
        """Cells consumed but invalidated by delete-by-content."""
        return self.fill - self.live

    @property
    def utilisation(self) -> float:
        return self.fill / self.size if self.size else 0.0


@dataclass(frozen=True)
class UnitStats:
    """Whole-unit occupancy summary."""

    total_cells: int
    num_groups: int
    blocks: List[BlockStats]

    @property
    def consumed_cells(self) -> int:
        return sum(block.fill for block in self.blocks)

    @property
    def live_cells(self) -> int:
        return sum(block.live for block in self.blocks)

    @property
    def holes(self) -> int:
        return self.consumed_cells - self.live_cells

    @property
    def utilisation(self) -> float:
        return self.consumed_cells / self.total_cells if self.total_cells else 0.0

    def group_fill(self) -> Dict[int, int]:
        """Consumed cells per group."""
        out: Dict[int, int] = {}
        for block in self.blocks:
            out[block.group] = out.get(block.group, 0) + block.fill
        return out

    @property
    def balanced(self) -> bool:
        """True when every group holds the same amount of content.

        In replicated mode this is an invariant (updates mirror into
        every group); a False here indicates a desynchronised unit.
        """
        fills = set(self.group_fill().values())
        return len(fills) <= 1

    def render(self) -> str:
        """Human-readable occupancy report."""
        lines = [
            f"CAM unit: {self.consumed_cells}/{self.total_cells} cells "
            f"consumed ({self.utilisation:.1%}), {self.live_cells} live, "
            f"{self.holes} holes, {self.num_groups} groups "
            f"({'balanced' if self.balanced else 'UNBALANCED'})"
        ]
        for block in self.blocks:
            bar_width = 24
            filled = int(round(block.utilisation * bar_width))
            bar = "#" * filled + "." * (bar_width - filled)
            lines.append(
                f"  block {block.block_id:3d} (group {block.group}): "
                f"[{bar}] {block.fill:4d}/{block.size}"
                + (f"  ({block.holes} holes)" if block.holes else "")
            )
        return "\n".join(lines)


def publish_stats(
    stats: UnitStats,
    registry: Optional["obs.MetricsRegistry"] = None,
) -> None:
    """Register a :class:`UnitStats` snapshot as occupancy gauges.

    Writes into ``registry`` (default: the global :func:`repro.obs.metrics`
    registry) unconditionally -- publishing a snapshot is an explicit
    request, not a hot path, so it works even while telemetry is
    disabled. This is the single code path ``repro demo --metrics`` and
    the manifests use to report occupancy/holes/utilisation.
    """
    reg = registry if registry is not None else obs.metrics()
    reg.gauge("cam_unit_cells_total",
              help="total CAM cells in the unit").set(stats.total_cells)
    reg.gauge("cam_unit_groups",
              help="current runtime group count M").set(stats.num_groups)
    reg.gauge("cam_unit_consumed_cells",
              help="cells consumed by stored or deleted entries").set(
                  stats.consumed_cells)
    reg.gauge("cam_unit_live_cells",
              help="cells holding live (searchable) entries").set(
                  stats.live_cells)
    reg.gauge("cam_unit_holes",
              help="cells invalidated by delete-by-content").set(stats.holes)
    reg.gauge("cam_unit_utilisation",
              help="consumed fraction of the unit's cells").set(
                  stats.utilisation)
    reg.gauge("cam_unit_balanced",
              help="1 when every group holds the same amount of content").set(
                  1 if stats.balanced else 0)
    fill_gauge = reg.gauge("cam_group_fill_cells",
                           help="consumed cells per logical group")
    for group, fill in sorted(stats.group_fill().items()):
        fill_gauge.set(fill, group=group)
    block_gauge = reg.gauge("cam_block_fill_cells",
                            help="consumed cells per block")
    for block in stats.blocks:
        block_gauge.set(block.fill, block=block.block_id, group=block.group)


def collect_stats(unit: CamUnit) -> UnitStats:
    """Snapshot a unit's occupancy (golden state; zero cycles)."""
    blocks = [
        BlockStats(
            block_id=block.block_id,
            group=unit.table.group_of(block.block_id),
            size=block.size,
            fill=block.occupancy,
            live=block.live_entries,
        )
        for block in unit.blocks
    ]
    return UnitStats(
        total_cells=unit.total_entries,
        num_groups=unit.num_groups,
        blocks=blocks,
    )
