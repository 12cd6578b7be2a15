"""Unit tests for the cycle driver."""

import pytest

from repro.errors import SimulationError
from repro.sim import Component, Simulator, Trace


class Counter(Component):
    def reset_state(self):
        self.value = 0

    def compute(self):
        self.schedule(value=self.value + 1)
        self.emit(value=self.value)


def test_requires_components():
    with pytest.raises(SimulationError, match="at least one component"):
        Simulator()


def test_rejects_non_component_roots():
    with pytest.raises(SimulationError, match="must be Components"):
        Simulator("not a component")


def test_step_advances_cycle():
    sim = Simulator(Counter())
    assert sim.cycle == 0
    sim.step(5)
    assert sim.cycle == 5


def test_negative_step_raises():
    sim = Simulator(Counter())
    with pytest.raises(SimulationError, match="negative"):
        sim.step(-1)


def test_multiple_roots_tick_together():
    a, b = Counter("a"), Counter("b")
    sim = Simulator(a, b)
    sim.step(4)
    assert a.value == 4
    assert b.value == 4


def test_reset_restores_state_and_cycle():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(7)
    sim.reset()
    assert sim.cycle == 0
    assert counter.value == 0


def test_run_until_counts_cycles():
    counter = Counter()
    sim = Simulator(counter)
    consumed = sim.run_until(lambda: counter.value == 9)
    assert consumed == 9
    assert sim.cycle == 9


def test_run_until_returns_zero_when_already_true():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(3)
    assert sim.run_until(lambda: counter.value >= 2) == 0


def test_run_until_timeout_raises():
    counter = Counter()
    sim = Simulator(counter)
    with pytest.raises(SimulationError, match="not met within 10 cycles"):
        sim.run_until(lambda: False, max_cycles=10)


def test_trace_attached_to_tree():
    trace = Trace()
    counter = Counter()
    sim = Simulator(counter, trace=trace)
    sim.step(3)
    values = [e.value for e in trace.events("Counter", "value")]
    assert values == [0, 1, 2]
    assert sim.trace is trace


class Holder(Component):
    """Schedules nothing unless :attr:`load` is set."""

    def reset_state(self):
        self.value = 7
        self.load = None

    def compute(self):
        if self.load is not None:
            self.schedule(value=self.load, load=None)


class Feeder(Component):
    """Sets its child's input port during its own compute phase."""

    def __init__(self, name=None):
        super().__init__(name)
        self.child = self.add_child(Sampler(f"{self.name}.child"))

    def reset_state(self):
        self.count = 0

    def compute(self):
        self.child.port = self.count
        self.schedule(count=self.count + 1)


class Sampler(Component):
    def reset_state(self):
        self.port = None
        self.seen = []

    def compute(self):
        self.seen.append(self.port)


def test_child_added_after_construction_is_stepped_next_cycle():
    root = Counter("root")
    sim = Simulator(root)
    sim.step(2)
    late = root.add_child(Counter("late"))
    late.reset_state()
    sim.step(3)
    assert root.value == 5
    assert late.value == 3


def test_child_added_after_construction_is_traced():
    trace = Trace()
    root = Counter("root")
    sim = Simulator(root, trace=trace)
    sim.step(1)
    late = root.add_child(Counter("late"))
    late.reset_state()
    sim.step(2)
    assert [e.value for e in trace.events("late", "value")] == [0, 1]
    assert [e.cycle for e in trace.events("late", "value")] == [1, 2]


def test_parent_drives_child_port_in_the_same_cycle():
    feeder = Feeder("feed")
    sim = Simulator(feeder)
    sim.step(3)
    # Pre-order: the parent computes first, so the child samples the
    # value driven in the same compute phase, not the previous one.
    assert feeder.child.seen == [0, 1, 2]


def test_idle_component_keeps_state_and_scheduled_value_lands_at_edge():
    holder = Holder()
    sim = Simulator(holder)
    sim.step(4)
    assert holder.value == 7
    holder.load = 11
    holder.compute()
    assert holder.value == 7  # nothing moves before the edge
    holder.commit()
    assert holder.value == 11
    holder.load = 3
    sim.step()
    assert holder.value == 3
    sim.step(2)
    assert holder.value == 3


def test_dsp_rejects_a_second_writer_of_its_registers():
    from repro.dsp import DSP48E2, cam_cell_attributes

    class Meddler(Component):
        def __init__(self):
            super().__init__("meddler")
            self.dsp = self.add_child(DSP48E2(cam_cell_attributes(), name="dsp"))

        def compute(self):
            self.dsp.c = 5
            self.dsp.schedule(_c_pipe=[9])

    sim = Simulator(Meddler())
    with pytest.raises(SimulationError, match="_c_pipe.*multiple drivers"):
        sim.step()
