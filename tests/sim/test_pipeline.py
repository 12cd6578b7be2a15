"""Unit tests for the valid pipe."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, ValidPipe


def test_valid_pipe_latency_via_registered_output():
    pipe = ValidPipe(depth=2)
    sim = Simulator(pipe)
    pipe.send({"key": 1})
    # Registered `valid` asserts depth+1 edges after send (the output
    # register adds one); `tail()` is the combinational depth-edge view.
    sim.step(2)
    assert pipe.tail() == (True, {"key": 1})
    sim.step()
    assert pipe.valid
    assert pipe.payload == {"key": 1}
    sim.step()
    assert not pipe.valid


def test_valid_pipe_full_rate():
    pipe = ValidPipe(depth=3)
    sim = Simulator(pipe)
    received = []
    for cycle in range(10):
        if cycle < 5:
            pipe.send(cycle)
        sim.step()
        valid, payload = pipe.tail()
        if valid:
            received.append(payload)
    assert received == [0, 1, 2, 3, 4], "II=1 pipelining must hold"


def test_valid_pipe_in_flight_count():
    pipe = ValidPipe(depth=4)
    sim = Simulator(pipe)
    pipe.send("a")
    sim.step()
    pipe.send("b")
    sim.step()
    assert pipe.in_flight() == 2


def test_valid_pipe_none_payload_is_valid():
    """None must be a legal payload (distinct from a bubble)."""
    pipe = ValidPipe(depth=1)
    sim = Simulator(pipe)
    pipe.send(None)
    sim.step()
    assert pipe.tail() == (True, None)


def test_valid_pipe_depth_validation():
    with pytest.raises(SimulationError):
        ValidPipe(0)
