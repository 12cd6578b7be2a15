"""The fixed-latency pipe the CAM datapaths are built from.

:class:`ValidPipe` is a :class:`repro.sim.Component` and follows the
two-phase protocol: a payload sent during a compute phase enters the
pipe at the commit (clock edge), exactly like a flip-flop chain.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import SimulationError
from repro.sim.component import Component


class ValidPipe(Component):
    """A latency pipe carrying (valid, payload) pairs.

    This is the workhorse for modelling fixed-latency datapaths such as
    the CAM block's search path: ``send(payload)`` and, ``depth`` cycles
    later, :attr:`valid` goes high for one cycle with :attr:`payload`
    set. Fully pipelined: one new payload may enter every cycle
    (initiation interval 1).
    """

    _BUBBLE = object()

    def __init__(self, depth: int, name: Optional[str] = None) -> None:
        super().__init__(name)
        if depth < 1:
            raise SimulationError(f"ValidPipe depth must be >= 1, got {depth}")
        self._depth = depth
        self.reset_state()

    @property
    def depth(self) -> int:
        return self._depth

    def reset_state(self) -> None:
        self._stages: List[Any] = [self._BUBBLE] * self._depth
        self._next_in: Any = self._BUBBLE
        self.valid = False
        self.payload: Any = None

    def send(self, payload: Any) -> None:
        """Launch a payload into the pipe at the upcoming edge."""
        self._next_in = payload

    def compute(self) -> None:
        tail = self._stages[-1]
        shifted = [self._next_in] + self._stages[:-1]
        self.schedule(
            _stages=shifted,
            _next_in=self._BUBBLE,
            valid=tail is not self._BUBBLE,
            payload=None if tail is self._BUBBLE else tail,
        )

    def in_flight(self) -> int:
        """Number of live payloads currently inside the pipe."""
        return sum(1 for stage in self._stages if stage is not self._BUBBLE)

    def tail(self):
        """Combinational read of the final register: (valid, payload).

        For a payload sent during the compute phase of cycle ``t``, the
        tail reads valid during the compute phase of cycle ``t + depth``
        -- the reading parent must consume it in that same phase (it
        shifts out at the following edge). This is how a parent
        component taps a registered pipeline without adding a cycle.
        """
        stage = self._stages[-1]
        if stage is self._BUBBLE:
            return False, None
        return True, stage
