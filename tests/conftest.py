"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import logging
import sys

# A late first import from hypothesis' summary hook crashes 3.11.7's AST.
import hypothesis  # noqa: F401
import numpy as np
import pytest

from repro.core import (
    BlockConfig,
    CamSession,
    CamType,
    CellConfig,
    UnitConfig,
    unit_for_entries,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture(autouse=True)
def _asyncio_errors_fail_in_dev_mode(caplog):
    """Under ``python -X dev``, an error the asyncio loop logs (a future
    or task exception that nobody retrieved) fails the test."""
    yield
    if sys.flags.dev_mode:
        errors = [record.getMessage() for record in caplog.get_records("call")
                  if record.name == "asyncio"
                  and record.levelno >= logging.ERROR]
        assert not errors, errors


@pytest.fixture
def cam_engine(request) -> str:
    """Execution engine selected via ``--cam-engine`` (default: batch)."""
    return request.config.getoption("--cam-engine")


@pytest.fixture
def audit_sample(request) -> float:
    """Episode sampling rate selected via ``--audit-sample``."""
    return request.config.getoption("--audit-sample")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for randomised (but reproducible) tests."""
    return np.random.default_rng(20250705)


@pytest.fixture
def small_block_config() -> BlockConfig:
    """A 16-cell binary block with a 128-bit bus (4 words/beat)."""
    return BlockConfig(
        cell=CellConfig(cam_type=CamType.BINARY, data_width=32),
        block_size=16,
        bus_width=128,
    )


@pytest.fixture
def small_unit_config() -> UnitConfig:
    """A 64-entry unit: 4 blocks of 16, 2 groups, 32-bit data."""
    return unit_for_entries(
        64, block_size=16, data_width=32, bus_width=128, default_groups=2
    )


@pytest.fixture
def small_session(small_unit_config) -> CamSession:
    return CamSession(small_unit_config)
