"""Golden proof that the cycle engine's registers and trace never move.

A small traced :class:`~repro.core.CamSession` (2 blocks x 8 cells, two
groups) runs a fixed script of updates, multi-query searches, a
delete, a regroup, a snapshot restore and a reset, once for a binary
and once for a ternary CAM. Two artefacts are compared byte for byte
with files committed under ``tests/sim/goldens/``:

- the VCD rendering of the whole trace (``$date`` line normalised);
- a JSON dump taken after every operation: each DSP's A/B/C register
  chains, ``P`` and ``PATTERNDETECT``, each cell's occupancy flip-flop
  and entry mask, the simulator's cycle count and the number of trace
  events so far (the VCD shows only value changes).

Any change to the simulation kernel, the DSP48E2 model or the CAM
cell that shifts one register value, one trace event or one cycle
fails here. After a deliberate change of semantics, regenerate with::

    PYTHONPATH=src python tests/sim/test_cycle_golden.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core import (
    CamSession,
    CamType,
    binary_entry,
    ternary_entry,
    unit_for_entries,
)
from repro.sim import trace_to_vcd

GOLDENS = Path(__file__).resolve().parent / "goldens"
DATA_WIDTH = 16
CAM_TYPES = {"binary": CamType.BINARY, "ternary": CamType.TERNARY}


def make_session(cam_type: CamType) -> CamSession:
    config = unit_for_entries(
        16, block_size=8, data_width=DATA_WIDTH, bus_width=64,
        default_groups=2, cam_type=cam_type,
    )
    return CamSession(config, trace=True)


def words(cam_type: CamType, values):
    """Entries for ``values``; ternary entries leave their low nibble
    (or, for every third word, their low byte) as don't-care."""
    if cam_type is CamType.BINARY:
        return [binary_entry(v, DATA_WIDTH) for v in values]
    return [
        ternary_entry(v, 0xFF if index % 3 == 2 else 0xF, DATA_WIDTH)
        for index, v in enumerate(values)
    ]


def register_state(session: CamSession) -> dict:
    cells = []
    for block in session.unit.blocks:
        for index in range(block.size):
            registers = block.registers(index)
            cells.append({
                "cell": f"{block.name}.cell{index}",
                "a_pipe": registers.a_pipe,
                "b_pipe": registers.b_pipe,
                "c_pipe": registers.c_pipe,
                "p": registers.p,
                "patterndetect": registers.patterndetect,
                "occupied": bool(block.occupied_bits[index]),
                "entry_mask": int(block.entry_masks[index]),
            })
    return {"cycle": session.sim.cycle, "trace_events": len(session.trace),
            "cells": cells}


def run_script(cam_type: CamType):
    """Drive the fixed script; return (vcd text, state dumps)."""
    session = make_session(cam_type)
    dumps = []

    def step(label, action):
        action()
        dumps.append({"op": label, **register_state(session)})

    first = [0x1234, 0xBEEF, 0x00F0, 0x1230, 0xCAFE, 0x0F0F]
    probes = [0x1234, 0x1239, 0xBEEF, 0x00FF, 0x7777]
    step("update", lambda: session.update(words(cam_type, first)))
    step("search", lambda: session.search(probes))
    step("delete", lambda: session.delete(0xBEEF))
    step("search", lambda: session.search(probes[::-1]))
    snapshot = session.snapshot()
    step("regroup", lambda: session.set_groups(1))
    second = [0x0101 * i for i in range(1, 11)]
    step("update", lambda: session.update(words(cam_type, second)))
    step("search", lambda: session.search([0x0303, 0x0A0A, 0x0A0F, 0x4444]))
    step("restore", lambda: session.restore(snapshot))
    step("search", lambda: session.search(probes))
    step("reset", session.reset)
    step("search", lambda: session.search([0x1234, 0x0101]))
    vcd = re.sub(r"^\$date .*\$end$", "$date normalised $end",
                 trace_to_vcd(session.trace), count=1, flags=re.MULTILINE)
    return vcd, json.dumps(dumps, indent=1) + "\n"


def golden_paths(kind: str):
    return GOLDENS / f"cycle_{kind}.vcd", GOLDENS / f"cycle_{kind}_state.json"


@pytest.mark.parametrize("kind", sorted(CAM_TYPES))
def test_trace_and_registers_match_golden(kind):
    vcd, state = run_script(CAM_TYPES[kind])
    vcd_path, state_path = golden_paths(kind)
    assert state == state_path.read_text(encoding="utf-8")
    assert vcd == vcd_path.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, cam_type in sorted(CAM_TYPES.items()):
        for path, text in zip(golden_paths(name), run_script(cam_type)):
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path} ({len(text)} bytes)")
