"""Measured evaluation of cells, blocks and units (paper section IV).

Latencies here are *measured* by driving the cycle-accurate models in a
simulator -- not asserted from the config -- so the benches regenerate
Tables V, VI and VIII the way the paper's authors did (hardware
counters), while resources and frequency come from the calibrated
fabric models (see DESIGN.md for the substitution rationale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.block import CamBlock
from repro.core.cell import CamCell
from repro.core.config import BlockConfig, CellConfig, UnitConfig, unit_for_entries
from repro.core.mask import binary_entry, entry_for
from repro.core.session import CamSession
from repro.core.types import CamType
from repro.errors import SimulationError
from repro.fabric.area import block_resources, unit_resources
from repro.fabric.device import ALVEO_U250, Device
from repro.fabric.resources import ResourceVector
from repro.fabric.timing import (
    block_frequency_mhz,
    search_throughput_mops,
    unit_frequency_mhz,
    update_throughput_mops,
)
from repro.sim import Simulator


@dataclass(frozen=True)
class CellReport:
    """Table V row: one CAM cell's capacity, latency and cost."""

    cam_type: CamType
    data_width: int
    update_latency: int
    search_latency: int
    resources: ResourceVector


@dataclass(frozen=True)
class BlockReport:
    """Table VI column: one block size's measured behaviour."""

    size: int
    update_latency: int
    search_latency: int
    update_throughput_mops: float
    search_throughput_mops: float
    resources: ResourceVector
    frequency_mhz: float
    lut_utilisation: float
    dsp_utilisation: float


@dataclass(frozen=True)
class UnitScalingReport:
    """Table VII row: unit resource/frequency scaling."""

    total_entries: int
    data_width: int
    luts: int
    dsps: int
    frequency_mhz: float
    lut_utilisation: float
    dsp_utilisation: float


@dataclass(frozen=True)
class UnitPerfReport:
    """Table VIII column: unit end-to-end performance."""

    total_entries: int
    data_width: int
    update_latency: int
    search_latency: int
    update_throughput_mops: float
    search_throughput_mops: float
    frequency_mhz: float


# ----------------------------------------------------------------------
# cell level (Table V)
# ----------------------------------------------------------------------
_SAMPLE_ENTRIES = {
    CamType.BINARY: (0x1234,),
    CamType.TERNARY: (0x1234, 0x00FF),
    CamType.RANGE: (0x1200, 0x12FF),
}


def measure_cell(
    cam_type: CamType = CamType.BINARY, data_width: int = 48
) -> CellReport:
    """Drive one cell in a simulator and measure both latencies."""
    cell = CamCell(cam_type=cam_type, data_width=data_width)
    sim = Simulator(cell)
    entry = entry_for(cam_type, data_width, *_SAMPLE_ENTRIES[cam_type])

    control_key = (entry.value ^ (1 << (data_width - 1))) | 1
    if entry.matches(control_key):
        raise SimulationError("control key unexpectedly matches the entry")

    cell.write_enable = True
    cell.write_entry = entry
    # Keep a non-matching key on the compare port during the write so
    # the match line is demonstrably low before the real search (the
    # raw match line is only meaningful while a search is in flight;
    # the block's token pipeline provides that gating in normal use).
    cell.search_key = control_key
    update_latency = sim.run_until(
        lambda: cell.occupied and cell.stored_value == entry.value, 8
    )
    sim.step(2)
    if cell.match_now():
        raise SimulationError("cell matched a non-matching control key")

    cell.search_key = entry.value
    search_latency = sim.run_until(lambda: cell.match_now(), 8)

    return CellReport(
        cam_type=cam_type,
        data_width=data_width,
        update_latency=update_latency,
        search_latency=search_latency,
        resources=CamCell.resources(),
    )


# ----------------------------------------------------------------------
# block level (Table VI)
# ----------------------------------------------------------------------
def measure_block(
    block_size: int,
    data_width: int = 48,
    bus_width: int = 512,
    device: Device = ALVEO_U250,
) -> BlockReport:
    """Measure a standalone block of ``block_size`` cells."""
    config = BlockConfig(
        cell=CellConfig(cam_type=CamType.BINARY, data_width=data_width),
        block_size=block_size,
        bus_width=bus_width,
    )
    block = CamBlock(config)
    sim = Simulator(block)

    words = [binary_entry(v + 1, data_width) for v in range(config.words_per_beat)]
    block.issue_update(words[: min(len(words), block_size)])
    update_latency = sim.run_until(lambda: block.occupancy > 0, 8)

    target = words[-1].value if len(words) <= block_size else words[block_size - 1].value
    block.issue_search(target)
    search_latency = sim.run_until(
        lambda: block.result_valid and block.result.key == target, 12
    )
    if not block.result.hit:
        raise SimulationError("block search missed a stored word")

    frequency = block_frequency_mhz(block_size)
    resources = block_resources(block_size, bus_width, buffered=block.buffered)
    utilisation = device.utilisation(resources)
    words_per_beat = config.words_per_beat
    return BlockReport(
        size=block_size,
        update_latency=update_latency,
        search_latency=search_latency,
        update_throughput_mops=round(words_per_beat * frequency, 0),
        search_throughput_mops=round(frequency, 0),
        resources=resources,
        frequency_mhz=frequency,
        lut_utilisation=utilisation.get("lut", 0.0),
        dsp_utilisation=utilisation.get("dsp", 0.0),
    )


# ----------------------------------------------------------------------
# unit level (Tables VII and VIII)
# ----------------------------------------------------------------------
def unit_scaling(
    total_entries: int,
    block_size: int = 256,
    data_width: int = 48,
    bus_width: int = 512,
    device: Device = ALVEO_U250,
) -> UnitScalingReport:
    """Table VII row: resources and frequency for a unit size.

    Purely model-based (no simulation): these are Vivado quantities.
    """
    resources = unit_resources(total_entries, block_size, bus_width)
    utilisation = device.utilisation(resources)
    return UnitScalingReport(
        total_entries=total_entries,
        data_width=data_width,
        luts=resources.lut,
        dsps=resources.dsp,
        frequency_mhz=unit_frequency_mhz(total_entries, data_width),
        lut_utilisation=utilisation.get("lut", 0.0),
        dsp_utilisation=utilisation.get("dsp", 0.0),
    )


def measure_unit_performance(
    total_entries: int,
    block_size: int = 128,
    data_width: int = 32,
    bus_width: int = 512,
) -> UnitPerfReport:
    """Table VIII column: measured unit latencies plus model throughput.

    The paper's methodology: randomly update and search a single value
    in the unit and count cycles end-to-end on the cycle engine.
    """
    session = CamSession(unit_for_entries(
        total_entries,
        block_size=block_size,
        data_width=data_width,
        bus_width=bus_width,
    ))
    unit = session.unit

    probe = (0x5A5A5A5A >> max(0, 32 - data_width)) | 1
    unit.issue_update([binary_entry(probe, data_width)])
    update_latency = session.sim.run_until(lambda: unit.update_done, 16)

    unit.issue_search([probe])
    search_latency = session.sim.run_until(
        lambda: unit.search_output is not None, 16
    )
    out = unit.search_output
    if not out or not out[0].hit:
        raise SimulationError("unit search missed the stored probe value")

    frequency = unit_frequency_mhz(total_entries, data_width)
    return UnitPerfReport(
        total_entries=total_entries,
        data_width=data_width,
        update_latency=update_latency,
        search_latency=search_latency,
        update_throughput_mops=update_throughput_mops(
            total_entries, data_width, bus_width
        ),
        search_throughput_mops=search_throughput_mops(total_entries, data_width),
        frequency_mhz=frequency,
    )


def our_survey_row(device: Device = ALVEO_U250) -> Dict[str, object]:
    """Our design's Table I row at maximum configuration (9728 x 48).

    Latencies use the configuration's measured values (update 6, search
    8 at this size -- verified by the Table VIII bench); resources come
    from the calibrated model.
    """
    total_entries = 9728
    resources = unit_resources(total_entries, block_size=256, bus_width=512)
    config = unit_for_entries(total_entries, block_size=256, data_width=48)
    return {
        "name": "Ours",
        "category": "DSP",
        "platform": device.name,
        "entries": total_entries,
        "width": 48,
        "frequency_mhz": unit_frequency_mhz(total_entries, 48),
        "lut": resources.lut + 26_934,  # system shell/interface logic share
        "bram": resources.bram,
        "dsp": resources.dsp,
        "update_latency": config.update_latency,
        "search_latency": config.search_latency,
    }
