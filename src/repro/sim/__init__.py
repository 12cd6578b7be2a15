"""Synchronous cycle-accurate simulation kernel.

Public surface:

- :class:`Component` -- two-phase (compute/commit) hardware model base.
- :class:`Simulator` -- single-clock cycle driver.
- :class:`ValidPipe` -- the fixed-latency pipe of the CAM datapaths.
- :class:`Trace`, :class:`TraceEvent` -- signal tracing.
"""

from repro.sim.component import Component
from repro.sim.pipeline import ValidPipe
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace, TraceEvent
from repro.sim.vcd import trace_to_vcd, write_vcd

__all__ = [
    "Component",
    "Simulator",
    "Trace",
    "TraceEvent",
    "ValidPipe",
    "trace_to_vcd",
    "write_vcd",
]
