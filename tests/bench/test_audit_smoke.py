"""Audit-engine smoke tests for every benchmark script.

One fast, seeded test per ``benchmarks/bench_*.py`` script: each drives
a miniature version (<= 64 entries, <= 2 groups) of that benchmark's
session-facing workload through the differential *audit* engine
(``engine="audit"``; see :mod:`repro.core.batch`), which replays the
``--audit-sample`` fraction of episodes through the cycle-accurate
shadow and asserts bit-exact result and cycle agreement. Any analytic
claim a benchmark leans on (latency formulas, beat counts, buffer
penalties) is re-derived here on audited hardware.

The default ``--audit-sample`` of 1.0 shadows every episode; a smaller
fraction audits a deterministic (seeded) subset.
"""

from dataclasses import replace

import pytest

from repro.core import CamType, WideCamSession, open_session, unit_for_entries

SEED = 20250806


def _audit_session(config, audit_sample):
    return open_session(config, engine="audit", audit_sample=audit_sample,
                        audit_seed=SEED, strict=True)


def _small_config(**overrides):
    params = dict(total_entries=64, block_size=32, data_width=16,
                  bus_width=64, default_groups=2)
    params.update(overrides)
    total = params.pop("total_entries")
    return unit_for_entries(total, **params)


@pytest.fixture
def audited(audit_sample):
    """Factory for strict audit sessions at the CLI-selected sample."""

    def _make(config=None, **overrides):
        return _audit_session(config or _small_config(**overrides),
                              audit_sample)

    return _make


def _assert_clean(session):
    report = session.audit_report
    assert report.passed, report.summary()


# ----------------------------------------------------------------------
# paper exhibits
# ----------------------------------------------------------------------
def test_fig01_characteristics_smoke(audited):
    """Fig. 1's claim: balanced single-digit update AND search latency."""
    session = audited()
    stats = session.update(list(range(8)))
    assert stats.cycles == session.update_latency + 1  # 2 beats
    session.search([3, 5])
    assert session.last_search_stats.cycles == session.search_latency
    _assert_clean(session)


def test_fig05_intersection_complexity_smoke(audit_sample):
    """CAM intersection equals the merge on a seeded list pair."""
    from repro.apps.tc import CamIntersector, merge_intersect

    intersector = CamIntersector(
        total_entries=64, block_size=32, engine="audit",
        audit_sample=audit_sample, audit_seed=SEED,
    )
    longer = list(range(0, 60, 2))
    shorter = list(range(0, 30, 3))
    common, cycles = intersector.intersect(longer, shorter)
    expected, _steps = merge_intersect(sorted(longer), sorted(shorter))
    assert common == expected
    assert cycles > 0
    _assert_clean(intersector.session)


def test_table01_survey_smoke(audited):
    """The surveyed feature set (ternary matching, priority encode)."""
    from repro.core import ternary_entry

    session = audited(cam_type=CamType.TERNARY)
    session.update([ternary_entry(0x10, 0x0F, 16),  # 0x10-0x1F
                    ternary_entry(0x20, 0x00, 16)])
    assert session.search_one(0x17).address == 0
    assert session.search_one(0x20).address == 1
    assert not session.search_one(0x30).hit
    _assert_clean(session)


def test_table05_cell_smoke(audited):
    """Table V's per-op latencies hold end to end on the audited unit."""
    session = audited()
    assert session.update([1]).cycles == session.update_latency
    session.search([1])
    assert session.last_search_stats.cycles == session.search_latency
    _assert_clean(session)


def test_table06_block_smoke(audited):
    """A single-block group behaves like Table VI's standalone block."""
    session = audited(total_entries=32, block_size=32, default_groups=1)
    session.update([5, 6, 7])
    result = session.search_one(6)
    assert result.hit and result.address == 1
    _assert_clean(session)


def test_table07_unit_scaling_smoke(audited):
    """Latency is size-invariant (Table VII): 32 vs 64 entries agree."""
    small = audited(total_entries=32, block_size=16)
    large = audited(total_entries=64, block_size=32)
    for session in (small, large):
        session.update([9])
        session.search([9])
    assert small.last_search_stats.cycles == large.last_search_stats.cycles
    assert small.last_update_stats.cycles == large.last_update_stats.cycles
    _assert_clean(small)
    _assert_clean(large)


def test_table08_unit_perf_smoke(audited):
    """Pipelined rate: B beats cost B + L - 1 cycles (II = 1)."""
    session = audited()
    session.update(list(range(32)))
    keys = list(range(16))  # M=2 -> 8 beats
    session.search(keys)
    assert session.last_search_stats.beats == 8
    assert session.last_search_stats.cycles == 8 + session.search_latency - 1
    _assert_clean(session)


def test_table09_triangle_counting_smoke(audit_sample):
    """The Table IX functional cross-check on a tiny seeded graph."""
    from repro.apps.tc import CamIntersector, verify_functional_equivalence
    from repro.graph import power_law

    graph = power_law(60, 150, triangle_fraction=0.4, seed=SEED)
    intersector = CamIntersector(
        total_entries=64, block_size=32, engine="audit",
        audit_sample=audit_sample, audit_seed=SEED,
    )
    verified = verify_functional_equivalence(
        graph, sample_edges=4, seed=SEED, intersector=intersector
    )
    assert verified >= 1
    _assert_clean(intersector.session)


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
def test_ablation_baseline_crossover_smoke(audited):
    """The crossover argument's DSP side: a 6-cycle audited update,
    far below the transposed LUTRAM table's rewrite cost."""
    from repro.baselines import LutRamCam

    session = audited()
    stats = session.update([42])
    lut_update = LutRamCam(64, 16).cost().update_latency
    assert stats.cycles < lut_update
    _assert_clean(session)


def test_ablation_bus_width_smoke(audit_sample):
    """A wider bus packs more words per beat; both widths audit clean."""
    narrow = _audit_session(_small_config(bus_width=64), audit_sample)
    wide = _audit_session(_small_config(bus_width=128), audit_sample)
    words = list(range(16))
    narrow_stats = narrow.update(words)
    wide_stats = wide.update(words)
    assert wide_stats.beats < narrow_stats.beats
    assert wide_stats.cycles < narrow_stats.cycles
    _assert_clean(narrow)
    _assert_clean(wide)


def test_ablation_dynamic_updates_smoke(audit_sample):
    """The update-heavy DISTINCT operator on the audit engine."""
    from repro.apps.db import CamDistinct

    stream = [(i * 7) % 12 for i in range(30)]
    distinct = CamDistinct(total_entries=64, block_size=32, engine="audit",
                           audit_sample=audit_sample, audit_seed=SEED)
    unique, stats = distinct.distinct(stream)
    assert sorted(unique) == sorted(set(stream))
    assert stats.cycles > 0
    _assert_clean(distinct.session)


def test_ablation_encoder_buffer_smoke(audit_sample):
    """The forced output buffer costs exactly one audited cycle."""
    plain_config = _small_config()
    buffered_config = replace(
        plain_config, block=plain_config.block.with_buffer(True)
    )
    plain = _audit_session(plain_config, audit_sample)
    buffered = _audit_session(buffered_config, audit_sample)
    for session in (plain, buffered):
        session.update([3])
        session.search([3])
    assert buffered.last_search_stats.cycles \
        == plain.last_search_stats.cycles + 1
    _assert_clean(plain)
    _assert_clean(buffered)


def test_ablation_group_count_smoke(audit_sample):
    """More groups answer a key burst in fewer audited cycles."""
    one = _audit_session(_small_config(default_groups=1), audit_sample)
    two = _audit_session(_small_config(default_groups=2), audit_sample)
    keys = list(range(8))
    one.update(keys)
    two.update(keys)
    one.search(keys)
    two.search(keys)
    assert two.last_search_stats.beats == one.last_search_stats.beats // 2
    assert two.last_search_stats.cycles < one.last_search_stats.cycles
    _assert_clean(one)
    _assert_clean(two)


def test_ablation_tc_capacity_smoke(audit_sample):
    """Oversized lists are rejected, fitting lists intersect exactly."""
    from repro.apps.tc import CamIntersector
    from repro.errors import CapacityError

    intersector = CamIntersector(
        total_entries=64, block_size=32, engine="audit",
        audit_sample=audit_sample, audit_seed=SEED,
    )
    with pytest.raises(CapacityError):
        intersector.intersect(list(range(100)), [1, 2])
    common, _cycles = intersector.intersect(list(range(40)), [10, 11, 99])
    assert common == 2
    _assert_clean(intersector.session)


def test_ablation_wide_keys_smoke(audit_sample):
    """A two-lane 96-bit wide CAM runs both lanes on audit engines."""
    wide = WideCamSession(
        capacity=32, key_width=96, block_size=16, bus_width=128,
        engine="audit", audit_sample=audit_sample, audit_seed=SEED,
    )
    keys = [1 << 80, (1 << 80) | 1, 3]
    wide.update(keys)
    assert wide.contains(keys[0])
    assert not wide.contains(1 << 81)
    for lane in wide.lanes:
        _assert_clean(lane)
