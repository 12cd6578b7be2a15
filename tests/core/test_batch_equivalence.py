"""Deterministic parity of the vectorized batch engine with the cycle
engine: the cycle-accounting formulas, independent-mode routing
errors, engine dispatch, error parity and the audit engine's own
checks.

Random configurations and operation interleavings run through the
differential harness (``tests/test_differential.py``): its strict
``audit`` stack runs every operation through both engines and the
golden reference, so results, stats and cycle counters are compared
after every step.
"""

from dataclasses import replace

import pytest
from hypothesis import strategies as st

from repro.core import (
    AuditSession,
    BatchSession,
    CamSession,
    CamType,
    check_equivalence,
    open_session,
    unit_for_entries,
)
from repro.errors import AuditError, CapacityError, ConfigError, RoutingError
from tests.test_differential import run_differential, unit_configs, unit_stack


class TestThreeWayDifferential:
    def test_random_configs_and_interleavings(self):
        run_differential("three_way", unit_stack("audit", unit_configs()))

    def test_buffered_configuration(self):
        # block_size >= 256 flips the encoder output buffer on, which
        # changes the search latency (7 -> 8); the formulas must track it.
        config = unit_for_entries(512, block_size=256, data_width=16,
                                  bus_width=128, default_groups=2)
        assert config.search_latency == 8
        report = check_equivalence(config, operations=30, seed=3)
        assert report.passed, report.summary()


# ----------------------------------------------------------------------
# batch engine against the golden model, and independent groups
# ----------------------------------------------------------------------
def test_batch_matches_golden_reference():
    run_differential("batch", unit_stack("batch", unit_configs(
        (CamType.BINARY,))))


def test_batch_ternary_matches_golden_reference():
    run_differential("batch_ternary", unit_stack("batch", unit_configs(
        (CamType.TERNARY,))))


def test_independent_mode_lockstep():
    """Independent groups, each checked against its own reference, with
    the audit engine holding both engines in cycle lockstep."""
    configs = unit_configs(independent=st.just(True))
    run_differential("independent", unit_stack("audit", configs))


# ----------------------------------------------------------------------
# cycle-accounting formulas against the simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("word_count,key_count", [(1, 1), (5, 3), (16, 9)])
def test_cycle_accounting_matches_simulator(word_count, key_count):
    config = unit_for_entries(64, block_size=16, data_width=16,
                              bus_width=64, default_groups=2)
    cycle = CamSession(config)
    batch = BatchSession(config)
    words = list(range(word_count))
    keys = list(range(key_count))
    assert cycle.update(words) == batch.update(words)
    cycle.search(keys)
    batch.search(keys)
    assert cycle.last_search_stats == batch.last_search_stats
    cycle.delete(0)
    batch.delete(0)
    cycle.reset()
    batch.reset()
    cycle.set_groups(1)
    batch.set_groups(1)
    assert cycle.cycle == batch.cycle


# ----------------------------------------------------------------------
# independent (multi-tenant) group mode
# ----------------------------------------------------------------------
def test_independent_mode_routing_errors_match():
    config = replace(
        unit_for_entries(64, block_size=16, data_width=16, bus_width=64,
                         default_groups=4),
        replicate_updates=False,
    )
    cycle, batch = CamSession(config), BatchSession(config)
    for session in (cycle, batch):
        with pytest.raises(RoutingError):
            session.update([1])  # no target group
        with pytest.raises(RoutingError):
            session.update([1], group=9)
        session.update([1], group=0)
        with pytest.raises(RoutingError):
            session.search([1, 2], groups=[0, 0])  # duplicate groups
    assert cycle.cycle == batch.cycle


# ----------------------------------------------------------------------
# engine dispatch and error parity
# ----------------------------------------------------------------------
def test_engine_dispatch_through_open_session(small_unit_config):
    assert type(open_session(small_unit_config)) is CamSession
    batch = open_session(small_unit_config, engine="batch")
    assert isinstance(batch, BatchSession)
    audit = open_session(small_unit_config, engine="audit")
    assert isinstance(audit, AuditSession)
    assert (CamSession.engine_name, batch.engine_name, audit.engine_name) \
        == ("cycle", "batch", "audit")


def test_engine_dispatch_rejects_unknown(small_unit_config):
    with pytest.raises(ConfigError):
        open_session(small_unit_config, engine="warp")


def test_open_session_forwards_kwargs(small_unit_config):
    session = open_session(small_unit_config, engine="audit",
                           audit_sample=1.0, audit_seed=3)
    assert isinstance(session, AuditSession)
    assert session.audit_sample == 1.0


def test_batch_rejects_tracing(small_unit_config):
    with pytest.raises(ConfigError):
        open_session(small_unit_config, engine="batch", trace=True)


def test_capacity_error_parity(small_unit_config):
    cycle = CamSession(small_unit_config)
    batch = BatchSession(small_unit_config)
    overflow = list(range(small_unit_config.group_capacity(2) + 1))
    with pytest.raises(CapacityError):
        cycle.update(overflow)
    with pytest.raises(CapacityError):
        batch.update(overflow)
    # Partial-failure semantics match: the fitting beats landed.
    assert cycle.occupancy == batch.occupancy
    assert cycle.cycle == batch.cycle


def test_structural_properties_match(small_unit_config):
    cycle = CamSession(small_unit_config)
    batch = BatchSession(small_unit_config)
    assert cycle.search_latency == batch.search_latency
    assert cycle.update_latency == batch.update_latency
    assert cycle.words_per_beat == batch.words_per_beat
    assert cycle.num_groups == batch.num_groups
    assert cycle.capacity == batch.capacity
    assert cycle.resources() == batch.resources()


# ----------------------------------------------------------------------
# the audit engine actually audits
# ----------------------------------------------------------------------
def test_audit_engine_passes_clean_run(small_unit_config):
    session = open_session(small_unit_config, engine="audit",
                           audit_sample=1.0)
    session.update([10, 20, 30])
    assert session.search_one(20).hit
    session.delete(10)
    assert not session.search_one(10).hit
    session.reset()
    session.update([7])
    report = session.audit_report
    assert report.passed, report.summary()
    assert report.ops_audited >= 5
    assert report.ops_fast_only == 0


def test_audit_engine_detects_corruption(small_unit_config):
    session = open_session(small_unit_config, engine="audit",
                           audit_sample=1.0)
    session.update([10, 20, 30])
    # Corrupt the fast path's store behind the audit's back: the next
    # audited search must diverge from the cycle-accurate shadow.
    session._stores[0].values[1] ^= 1
    with pytest.raises(AuditError):
        session.search_one(20)
    assert not session.audit_report.passed


def test_audit_engine_nonstrict_records_divergence(small_unit_config):
    session = open_session(small_unit_config, engine="audit",
                           audit_sample=1.0, strict=False)
    session.update([10, 20, 30])
    session._stores[0].values[1] ^= 1
    session.search_one(20)  # must not raise
    report = session.audit_report
    assert not report.passed
    assert report.divergences


@pytest.mark.parametrize("flush", ["reset", "set_groups", "restore"])
def test_audit_engine_checks_flush_costs(small_unit_config, monkeypatch,
                                         flush):
    session = open_session(small_unit_config, engine="audit",
                           audit_sample=1.0)
    session.update([10, 20])
    args = {"reset": (), "set_groups": (1,),
            "restore": (session.snapshot(),)}[flush]
    fast_flush = getattr(BatchSession, flush)

    def one_cycle_slow(self, *args):
        fast_flush(self, *args)
        self._cycle += 1

    monkeypatch.setattr(BatchSession, flush, one_cycle_slow)
    with pytest.raises(AuditError, match=flush):
        getattr(session, flush)(*args)


def test_audit_sampling_skips_unaudited_episodes(small_unit_config):
    session = open_session(small_unit_config, engine="audit",
                           audit_sample=0.0)
    session.update([1, 2, 3])
    session.search_one(2)
    session.reset()
    report = session.audit_report
    assert report.ops_audited == 0
    assert report.ops_fast_only == 2
    assert report.episodes_audited == 0
    assert report.passed


def test_audit_sample_validation(small_unit_config):
    with pytest.raises(ConfigError):
        open_session(small_unit_config, engine="audit", audit_sample=1.5)
