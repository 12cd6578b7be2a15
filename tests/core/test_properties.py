"""The cycle engine against the golden reference, one property at a
time, and the RMCAM alignment restriction.

Each property is a small run of the differential harness
(``tests/test_differential.py``) on the cycle engine, narrowed to one
CAM type, one geometry or part of the operation vocabulary; its
``TestCycle`` stack covers the whole space.
"""

import pytest
from hypothesis import strategies as st

from repro.core import CamType, range_entry, unit_for_entries
from tests.test_differential import (
    RULES,
    run_differential,
    unit_configs,
    unit_stack,
)

WIDTH = 16
BINARY = unit_configs((CamType.BINARY,))


def _cycle(name, configs, vocabulary=RULES):
    run_differential(name, unit_stack("cycle", configs), vocabulary)


def test_binary_cam_matches_reference():
    _cycle("binary", BINARY)


def test_ternary_cam_matches_reference():
    _cycle("ternary", unit_configs((CamType.TERNARY,)))


def test_range_cam_matches_reference():
    _cycle("range", unit_configs((CamType.RANGE,)))


def test_incremental_updates_match_reference():
    """Interleaved insert batches keep insertion-order addresses."""
    _cycle("incremental", BINARY, {"insert", "lookup"})


def test_reset_between_fills():
    """Content from before a reset never matches after it."""
    _cycle("refill", BINARY, {"insert", "reset", "lookup"})


def test_multi_query_replicas_agree():
    """Every group answers a key alike: a lookup's keys are spread over
    the two groups, and its small key space repeats keys."""
    two_groups = st.just(unit_for_entries(64, block_size=16, data_width=WIDTH,
                                          bus_width=64, default_groups=2))
    _cycle("replicas", two_groups, {"insert", "lookup"})


@pytest.mark.parametrize("low_bits", range(0, WIDTH))
def test_every_power_of_two_range_is_expressible(low_bits):
    """Deterministic sweep of the RMCAM alignment restriction."""
    extent = 1 << low_bits
    entry = range_entry(0, extent - 1, WIDTH)
    assert entry.matches(0)
    assert entry.matches(extent - 1)
    if extent < (1 << WIDTH):
        assert not entry.matches(extent)
