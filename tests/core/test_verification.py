"""Unit tests for the self-service equivalence checker."""

import pytest

from repro.core import (
    AuditSession,
    CamType,
    check_equivalence,
    unit_for_entries,
)
from repro.errors import ConfigError


def config(cam_type=CamType.BINARY, groups=2):
    return unit_for_entries(
        64, block_size=16, data_width=12, bus_width=64,
        cam_type=cam_type, default_groups=groups,
    )


@pytest.mark.parametrize("cam_type", list(CamType))
def test_every_cam_type_passes(cam_type):
    report = check_equivalence(config(cam_type), operations=120, seed=3)
    assert report.passed, report.summary()
    assert report.searches > 0
    assert report.updates > 0
    assert report.regroups > 0
    assert report.simulated_cycles > 0


def test_report_counts_sum_to_operations():
    report = check_equivalence(config(), operations=80, seed=4)
    assert (report.searches + report.updates + report.deletes +
            report.resets + report.regroups) == report.operations


def test_summary_renders():
    report = check_equivalence(config(), operations=30, seed=5)
    text = report.summary()
    assert text.startswith("PASS")
    assert "30 ops" in text


def test_reproducible_per_seed():
    first = check_equivalence(config(), operations=60, seed=6)
    second = check_equivalence(config(), operations=60, seed=6)
    assert first.searches == second.searches
    assert first.simulated_cycles == second.simulated_cycles


def test_operations_validation():
    with pytest.raises(ConfigError):
        check_equivalence(config(), operations=0)


def test_unusual_configuration_passes():
    """The point of the checker: odd widths/groups still verify."""
    odd = unit_for_entries(
        96, block_size=32, data_width=11, bus_width=128,
        cam_type=CamType.TERNARY, default_groups=3,
    )
    report = check_equivalence(odd, operations=100, seed=7)
    assert report.passed, report.summary()


def test_catches_a_corrupted_batch_store(monkeypatch):
    """One flipped stored bit in the fast path shows up both against
    the cycle-accurate shadow and against the golden model."""
    update = AuditSession.update

    def corrupt_first_update(self, words, group=None):
        stats = update(self, words, group=group)
        monkeypatch.setattr(AuditSession, "update", update)
        self._stores[0].values[0] ^= 1
        return stats

    monkeypatch.setattr(AuditSession, "update", corrupt_first_update)
    narrow = unit_for_entries(64, block_size=16, data_width=4, bus_width=64)
    report = check_equivalence(narrow, operations=40, seed=3)
    kinds = {divergence.kind for divergence in report.divergences}
    assert {"search (cycle)", "search (golden)"} <= kinds
