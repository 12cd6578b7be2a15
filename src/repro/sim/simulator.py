"""Cycle driver for the two-phase synchronous simulation kernel."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.component import Component
from repro.sim.trace import Trace


class Simulator:
    """Drives one synchronous clock domain over a set of component trees.

    Each :meth:`step` performs one clock cycle: every component in every
    registered tree runs its *compute* phase, then every component with
    scheduled updates *commits*. The current cycle number is available
    as :attr:`cycle` and starts at 0 (no edges have happened yet).

    The trees are flattened once into a schedule: the components in
    depth-first pre-order (roots in registration order), so a parent
    still drives its children's ports before they compute in the same
    cycle, plus their bound ``compute`` methods. The schedule is built
    again, and the simulator's trace attached to any new component,
    only when :meth:`Component.add_child` has been called since.

    Example
    -------
    >>> from repro.sim import Component, Simulator
    >>> class Counter(Component):
    ...     def reset_state(self):
    ...         self.value = 0
    ...     def compute(self):
    ...         self.schedule(value=self.value + 1)
    >>> counter = Counter()
    >>> sim = Simulator(counter)
    >>> sim.step(3)
    >>> counter.value
    3
    """

    def __init__(self, *components: Component, trace: Optional[Trace] = None) -> None:
        if not components:
            raise SimulationError("Simulator needs at least one component")
        self._roots: List[Component] = list(components)
        self._cycle = 0
        self._trace = trace
        for root in self._roots:
            if not isinstance(root, Component):
                raise SimulationError(
                    f"Simulator roots must be Components, got {type(root).__name__}"
                )
        self._components: List[Component] = []
        self._computes: List[Callable[[], None]] = []
        self._flatten()
        self.reset()

    def _flatten(self) -> None:
        """Rebuild the pre-order schedule; trace components new to it."""
        known = set(self._components)
        order = [component for root in self._roots
                 for component in root.iter_tree()]
        if self._trace is not None:
            for component in order:
                if component not in known:
                    component._tracer = self._trace
        self._components = order
        self._computes = [component.compute for component in order]
        self._tree_version = Component._tree_version

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Number of clock edges simulated since the last reset."""
        return self._cycle

    @property
    def trace(self) -> Optional[Trace]:
        """The attached trace object, if tracing is enabled."""
        return self._trace

    def reset(self) -> None:
        """Synchronous reset: restore all register state, zero the cycle."""
        for root in self._roots:
            root.reset_tree()
        self._cycle = 0

    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` edges."""
        if cycles < 0:
            raise SimulationError(f"cannot step a negative cycle count ({cycles})")
        trace = self._trace
        for _ in range(cycles):
            if self._tree_version != Component._tree_version:
                self._flatten()
            if trace is not None:
                trace.begin_cycle(self._cycle)
            for compute in self._computes:
                compute()
            for component in self._components:
                if component._pending:
                    component.commit()
            self._cycle += 1

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 10_000,
    ) -> int:
        """Step until ``condition()`` is true; return cycles consumed.

        The condition is evaluated *after* each edge. Raises
        :class:`SimulationError` if ``max_cycles`` edges pass without the
        condition holding, so a wedged model fails loudly instead of
        spinning forever.
        """
        start = self._cycle
        if condition():
            return 0
        for _ in range(max_cycles):
            self.step()
            if condition():
                return self._cycle - start
        raise SimulationError(
            f"condition not met within {max_cycles} cycles "
            f"(started at cycle {start})"
        )
