"""Repo-root pytest configuration shared by tests/ and benchmarks/.

Registers the command-line options both suites consume, so they can be
run together (``pytest tests benchmarks``) without duplicate-option
errors from per-directory conftests:

- ``--cam-engine {cycle,batch,audit}``: execution engine the
  session-driven tests and benchmarks use (see :mod:`repro.core.batch`).
- ``--audit-sample FRACTION``: episode-sampling rate when the audit
  engine is selected; 1.0 replays everything through the
  cycle-accurate shadow.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--cam-engine",
        default="batch",
        choices=["cycle", "batch", "audit"],
        help="CAM execution engine for engine-parameterised tests/benchmarks",
    )
    parser.addoption(
        "--audit-sample",
        type=float,
        default=1.0,
        help="fraction of reset-bounded episodes the audit engine replays "
             "through the cycle-accurate shadow (only with --cam-engine=audit)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )
