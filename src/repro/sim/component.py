"""Synchronous hardware component base class.

The simulation kernel models a single synchronous clock domain with
two-phase evaluation, mirroring how registers behave in RTL:

1. *compute* phase -- every component reads its input attributes and its
   current state and **schedules** updates via :meth:`Component.schedule`.
   Nothing observable changes during this phase, so evaluation order
   between sibling components cannot create read-after-write races.
2. *commit* phase -- all scheduled updates are applied atomically,
   modelling the rising clock edge.

A component's public attributes play the role of ports: a parent (or the
testbench) assigns input attributes before a cycle, and reads output
attributes after it. Because outputs only change at commit, every
component boundary behaves like a register stage, exactly as in the
paper's pipelined CAM design.

Scheduled names must be plain instance attributes: :meth:`commit`
writes them straight into the instance ``__dict__``, so a property or a
custom ``__setattr__`` would be bypassed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import SimulationError


class Component:
    """Base class for all synchronous hardware models.

    Subclasses override :meth:`compute` (combinational logic plus
    next-state calculation) and optionally :meth:`reset_state` (the
    synchronous reset value of every register). State updates must go
    through :meth:`schedule` so that the two-phase contract holds.
    """

    #: Bumped by every :meth:`add_child` anywhere; a
    #: :class:`repro.sim.Simulator` re-flattens its schedule when it moves.
    _tree_version = 0

    def __init__(self, name: Optional[str] = None) -> None:
        self._name = name if name is not None else type(self).__name__
        self._pending: Dict[str, object] = {}
        self._children: List["Component"] = []
        self._tracer = None

    # ------------------------------------------------------------------
    # identity / hierarchy
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Instance name used in traces and error messages."""
        return self._name

    @property
    def children(self) -> List["Component"]:
        """Direct sub-components, in registration order."""
        return list(self._children)

    def add_child(self, component: "Component") -> "Component":
        """Register ``component`` as a child and return it.

        Children participate automatically in compute/commit/reset when
        the parent is stepped by a :class:`repro.sim.Simulator`.
        """
        if not isinstance(component, Component):
            raise SimulationError(
                f"{self._name}: child must be a Component, got "
                f"{type(component).__name__}"
            )
        self._children.append(component)
        Component._tree_version += 1
        return component

    def iter_tree(self) -> Iterator["Component"]:
        """Yield this component and every descendant, depth-first."""
        yield self
        for child in self._children:
            yield from child.iter_tree()

    # ------------------------------------------------------------------
    # two-phase protocol
    # ------------------------------------------------------------------
    def schedule(self, **updates: object) -> None:
        """Schedule attribute updates to apply at the next clock edge.

        Scheduling the same attribute twice within one compute phase is
        a modelling bug (two drivers on one register) and raises
        :class:`SimulationError`.
        """
        for key, value in updates.items():
            if key in self._pending:
                raise SimulationError(
                    f"{self._name}: attribute {key!r} scheduled twice in "
                    "one cycle (multiple drivers)"
                )
            self._pending[key] = value

    def compute(self) -> None:
        """Combinational evaluation; override in subclasses."""

    def commit(self) -> None:
        """Apply scheduled updates (the clock edge). Rarely overridden.

        The pending values go straight into the instance ``__dict__``
        and a fresh dict takes the place of ``_pending``. The simulator
        only calls this on components with something pending, so an
        override must not expect to run on every edge.
        """
        self.__dict__.update(self._pending)
        self._pending = {}

    def reset_state(self) -> None:
        """Restore power-on register values; override in subclasses."""

    def reset_tree(self) -> None:
        """Reset this component and all descendants."""
        for component in self.iter_tree():
            component._pending.clear()
            component.reset_state()

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def emit(self, **signals: object) -> None:
        """Record named signal values into the attached trace, if any."""
        if self._tracer is not None:
            self._tracer.record(self._name, signals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._name!r}>"
