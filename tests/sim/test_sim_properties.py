"""Property-based tests for the simulation kernel primitives.

The CAM's cycle-exactness rests on these invariants: pipes deliver
payloads in order after exactly their depth, and the two-phase
protocol is deterministic under any interleaving.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Component, Simulator, ValidPipe

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(
    depth=st.integers(min_value=1, max_value=8),
    schedule=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_valid_pipe_preserves_order_and_latency(depth, schedule):
    """Under any send/no-send pattern, payloads exit in order exactly
    ``depth`` cycles after entry (read combinationally via tail)."""
    pipe = ValidPipe(depth)
    sim = Simulator(pipe)
    sent = []
    received = []
    for cycle, do_send in enumerate(schedule + [False] * depth):
        if do_send:
            pipe.send(("tok", cycle))
            sent.append(cycle)
        sim.step()
        valid, payload = pipe.tail()
        if valid:
            received.append(payload)
    assert [tag for tag, _ in received] == ["tok"] * len(sent)
    assert [cycle for _, cycle in received] == sent
    # tail() sees each payload exactly depth cycles after its send.
    for send_cycle, (_, stamped) in zip(sent, received):
        assert stamped == send_cycle


class Accumulator(Component):
    def reset_state(self):
        self.total = 0
        self.increment = 0

    def compute(self):
        self.schedule(total=self.total + self.increment)


@SETTINGS
@given(values=st.lists(st.integers(-100, 100), max_size=30))
def test_two_phase_determinism(values):
    """Replaying the same stimulus twice gives identical state."""

    def run():
        acc = Accumulator()
        sim = Simulator(acc)
        trail = []
        for value in values:
            acc.increment = value
            sim.step()
            trail.append(acc.total)
        return trail

    assert run() == run()
    if values:
        assert run()[-1] == sum(values)


@SETTINGS
@given(
    depth=st.integers(min_value=1, max_value=5),
    burst=st.integers(min_value=1, max_value=20),
)
def test_full_rate_burst_drains_in_burst_plus_depth(depth, burst):
    """An II=1 burst of N payloads fully drains after N + depth edges."""
    pipe = ValidPipe(depth)
    sim = Simulator(pipe)
    received = 0
    for cycle in range(burst + depth):
        if cycle < burst:
            pipe.send(cycle)
        sim.step()
        valid, _ = pipe.tail()
        if valid:
            received += 1
    assert received == burst
    assert pipe.in_flight() == 0
