"""Property-based equivalence proof of the vectorized batch engine.

The batch engine (:mod:`repro.core.batch`) claims bit-identical
results *and* identical cycle accounting to the cycle-accurate
simulator for every configuration. This suite makes that claim a
hypothesis property: random unit configurations (binary/ternary,
varying block sizes, group counts, key widths, bus widths) and random
operation interleavings are driven through the cycle engine, the batch
engine and the golden :class:`ReferenceCam` at once, comparing every
result field, every stats tuple and the cycle counters after every
operation (:func:`repro.core.check_equivalence` on the audit engine).

Run the deep profile (``HYPOTHESIS_PROFILE=deep``) for many more
examples; the default profile keeps the suite inside the tier-1 time
budget.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

#: The CI "deep" job sets HYPOTHESIS_PROFILE=deep for a much longer
#: randomised soak; the default profile stays inside the tier-1 budget.
_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

from repro.core import (
    AuditSession,
    BatchSession,
    CamSession,
    CamType,
    ReferenceCam,
    binary_entry,
    check_equivalence,
    open_session,
    ternary_entry,
    unit_for_entries,
)
from repro.errors import AuditError, CapacityError, ConfigError, RoutingError


@st.composite
def unit_configs(draw):
    """Random (but valid) unit configurations across the design space."""
    cam_type = draw(st.sampled_from([CamType.BINARY, CamType.TERNARY]))
    block_size = draw(st.sampled_from([8, 16, 32]))
    num_blocks = draw(st.sampled_from([2, 4]))
    groups = draw(st.sampled_from(
        [g for g in (1, 2, 4) if num_blocks % g == 0]
    ))
    data_width = draw(st.sampled_from([8, 12, 16, 24, 32, 48]))
    bus_width = draw(st.sampled_from([64, 128, 256]))
    return unit_for_entries(
        block_size * num_blocks,
        block_size=block_size,
        data_width=data_width,
        bus_width=bus_width,
        cam_type=cam_type,
        default_groups=groups,
    )


class TestThreeWayDifferential:
    """Random configs x random interleavings, all three models agree."""

    @given(config=unit_configs(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=80 if _DEEP else 20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_configs_and_interleavings(self, config, seed):
        report = check_equivalence(config, operations=25, seed=seed)
        assert report.passed, report.summary()

    def test_buffered_configuration(self):
        # block_size >= 256 flips the encoder output buffer on, which
        # changes the search latency (7 -> 8); the formulas must track it.
        config = unit_for_entries(512, block_size=256, data_width=16,
                                  bus_width=128, default_groups=2)
        assert config.search_latency == 8
        report = check_equivalence(config, operations=30, seed=3)
        assert report.passed, report.summary()


# ----------------------------------------------------------------------
# cheap lockstep properties (no cycle simulator: batch vs golden model)
# ----------------------------------------------------------------------
@given(
    words=st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=32),
    probes=st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=16),
)
@settings(max_examples=300 if _DEEP else 60, deadline=None)
def test_batch_matches_golden_reference(words, probes):
    config = unit_for_entries(64, block_size=16, data_width=12,
                              bus_width=64, default_groups=2)
    session = BatchSession(config)
    reference = ReferenceCam(session.capacity)
    entries = [binary_entry(w, 12) for w in words]
    session.update(entries)
    reference.update(entries)
    for probe in probes + words:
        fast = session.search_one(probe)
        gold = reference.search(probe)
        assert fast == gold


@given(
    stored=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                    min_size=1, max_size=16),
    probes=st.lists(st.integers(0, 255), min_size=1, max_size=8),
)
@settings(max_examples=300 if _DEEP else 60, deadline=None)
def test_batch_ternary_matches_golden_reference(stored, probes):
    config = unit_for_entries(32, block_size=16, data_width=8, bus_width=64,
                              cam_type=CamType.TERNARY, default_groups=1)
    session = BatchSession(config)
    reference = ReferenceCam(session.capacity)
    entries = [ternary_entry(value & ~care & 0xFF, care, 8)
               for value, care in stored]
    session.update(entries)
    reference.update(entries)
    for probe in probes:
        fast = session.search_one(probe)
        gold = reference.search(probe)
        assert fast.match_vector == gold.match_vector
        assert fast.address == gold.address


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
def _independent_pair():
    config = replace(
        unit_for_entries(64, block_size=16, data_width=16, bus_width=64,
                         default_groups=4),
        replicate_updates=False,
    )
    return CamSession(config), BatchSession(config)


@given(data=st.data())
@settings(max_examples=100 if _DEEP else 25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_independent_mode_lockstep(data):
    cycle, batch = _independent_pair()
    tenant_words = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=6)
    for group in range(4):
        words = data.draw(tenant_words, label=f"group{group}")
        assert cycle.update(words, group=group) \
            == batch.update(words, group=group)
    probes = data.draw(
        st.lists(st.integers(0, 0xFFFF), min_size=4, max_size=4),
        label="probes",
    )
    groups = [0, 1, 2, 3]
    assert cycle.search(probes, groups=groups) \
        == batch.search(probes, groups=groups)
    assert cycle.cycle == batch.cycle


def test_independent_mode_routing_errors_match():
    cycle, batch = _independent_pair()
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
