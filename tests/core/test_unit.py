"""Unit tests for the CAM unit (figure 4, Table VIII behaviour)."""

import pytest

from repro.core import CamUnit, SearchResult, binary_entry, unit_for_entries
from repro.errors import CapacityError, ConfigError, RoutingError
from repro.sim import Simulator


def make_unit(entries=64, block_size=16, groups=2, data_width=32, bus=128,
              replicate=True):
    config = unit_for_entries(
        entries, block_size=block_size, data_width=data_width,
        bus_width=bus, default_groups=groups,
    )
    if not replicate:
        from dataclasses import replace
        config = replace(config, replicate_updates=False)
    unit = CamUnit(config)
    return unit, Simulator(unit)


def words(values, width=32):
    return [binary_entry(v, width) for v in values]


def drain_update(unit, sim):
    # One step consumes the staged beat and clears any stale done pulse,
    # then wait for this beat's own pulse.
    sim.step()
    sim.run_until(lambda: unit.update_done, unit.update_latency + 4)


def search_unit(unit, sim, keys):
    unit.issue_search(keys)
    sim.run_until(lambda: unit.search_output is not None,
                  unit.search_latency + 4)
    return unit.search_output


# ----------------------------------------------------------------------
# latency contracts (Table VIII)
# ----------------------------------------------------------------------
def test_update_latency_is_six():
    unit, sim = make_unit()
    unit.issue_update(words([1]))
    assert sim.run_until(lambda: unit.update_done, 10) == 6


def test_search_latency_small_unit_is_seven():
    unit, sim = make_unit()
    unit.issue_update(words([1]))
    drain_update(unit, sim)
    unit.issue_search([1])
    assert sim.run_until(lambda: unit.search_output is not None, 12) == 7


def test_search_latency_large_unit_is_eight():
    unit, sim = make_unit(entries=2048, block_size=128, groups=2)
    unit.issue_update(words([1]))
    drain_update(unit, sim)
    unit.issue_search([1])
    assert sim.run_until(lambda: unit.search_output is not None, 12) == 8


# ----------------------------------------------------------------------
# replicated multi-query behaviour
# ----------------------------------------------------------------------
def test_replicated_groups_hold_identical_content():
    unit, sim = make_unit(groups=2)
    unit.issue_update(words([10, 20, 30]))
    drain_update(unit, sim)
    for group in range(2):
        values = [e.value for e in unit.stored_entries(group)]
        assert values == [10, 20, 30]


def test_multi_query_independent_answers():
    unit, sim = make_unit(groups=2)
    unit.issue_update(words([5, 6, 7]))
    drain_update(unit, sim)
    results = search_unit(unit, sim, [6, 99])
    assert results[0].hit and results[0].address == 1
    assert not results[1].hit


def test_replicated_addresses_identical_across_groups():
    unit, sim = make_unit(groups=2)
    unit.issue_update(words([5, 6, 7]))
    drain_update(unit, sim)
    results = search_unit(unit, sim, [7, 7])
    assert results[0].address == results[1].address == 2


def test_too_many_queries_rejected():
    unit, _ = make_unit(groups=2)
    with pytest.raises(RoutingError, match="exceed"):
        unit.issue_search([1, 2, 3])


def test_round_robin_across_blocks():
    """Content beyond one block lands in the group's next block."""
    unit, sim = make_unit(entries=64, block_size=16, groups=2, bus=128)
    # Group capacity 32 = 2 blocks of 16; 4 words per beat.
    for base in range(0, 24, 4):
        unit.issue_update(words(list(range(base, base + 4))))
        sim.step()
    sim.step(8)
    results = search_unit(unit, sim, [20])  # lives in the second block
    assert results[0].hit
    assert results[0].address == 20


def test_group_capacity_enforced_at_issue():
    unit, sim = make_unit(entries=64, block_size=16, groups=2, bus=128)
    for base in range(0, 32, 4):
        unit.issue_update(words(list(range(base, base + 4))))
        sim.step()
    with pytest.raises(CapacityError, match="cannot take"):
        unit.issue_update(words([99]))


def test_one_beat_per_cycle():
    unit, _ = make_unit()
    unit.issue_update(words([1]))
    with pytest.raises(ConfigError, match="one operation beat"):
        unit.issue_search([1])


def test_update_beat_width_check():
    unit, _ = make_unit(bus=128)  # 4 words/beat
    with pytest.raises(CapacityError, match="bus fits"):
        unit.issue_update(words([1, 2, 3, 4, 5]))
    with pytest.raises(ConfigError, match="empty"):
        unit.issue_update([])


# ----------------------------------------------------------------------
# reset and regroup
# ----------------------------------------------------------------------
def test_reset_flushes_content():
    unit, sim = make_unit()
    unit.issue_update(words([1, 2]))
    drain_update(unit, sim)
    unit.issue_reset()
    sim.step(unit.update_latency + 2)
    assert unit.stored_words(0) == 0
    results = search_unit(unit, sim, [1])
    assert not results[0].hit


def test_regroup_changes_group_count_and_flushes():
    unit, sim = make_unit(entries=64, block_size=16, groups=2)
    unit.issue_update(words([1]))
    drain_update(unit, sim)
    unit.issue_regroup(4)
    sim.step(unit.update_latency + 2)
    assert unit.num_groups == 4
    assert unit.group_capacity == 16
    assert unit.stored_words(3) == 0
    # Four concurrent queries are now legal.
    unit.issue_update(words([8]))
    drain_update(unit, sim)
    results = search_unit(unit, sim, [8, 8, 8, 8])
    assert all(r.hit for r in results)


def test_regroup_validation():
    unit, _ = make_unit(entries=64, block_size=16)
    with pytest.raises(RoutingError, match="divide"):
        unit.issue_regroup(3)


def interleaved_unit():
    """A 4-block unit regrouped so group 0 is blocks 0 and 2 and group 1
    is blocks 1 and 3: no group's blocks are neighbours."""
    unit, sim = make_unit(entries=64, block_size=16, groups=1, bus=128)
    unit.issue_regroup(2, mapping=[0, 1, 0, 1])
    sim.step(unit.update_latency + 2)
    return unit, sim


def search_beat(unit, sim, keys):
    """Issue one search beat and return its results; unlike
    :func:`search_unit` it steps past any earlier beat's output first."""
    unit.issue_search(keys)
    sim.step()
    sim.run_until(lambda: unit.search_output is not None,
                  unit.search_latency + 4)
    return unit.search_output


def expected_result(key, stored):
    """The answer at group-content addresses (``block_slot * block_size
    + cell``): the group fills its blocks in order, so a word's address
    is its write index."""
    vector = sum(1 << address for address, word in enumerate(stored)
                 if word == key)
    return SearchResult.from_vector(key, vector)


def test_regroup_with_custom_mapping():
    unit, sim = interleaved_unit()
    assert list(unit.table.blocks_in_group(0)) == [0, 2]
    assert list(unit.table.blocks_in_group(1)) == [1, 3]
    # 24 words fill block slot 0 of each group and spill into slot 1;
    # 7 and 21 are stored twice, once in each slot.
    stored = [(3 * i) % 23 for i in range(22)] + [7, 21]
    for base in range(0, len(stored), 4):
        unit.issue_update(words(stored[base:base + 4]))
        sim.step()
    sim.step(unit.update_latency + 2)
    for group in range(2):
        assert [e.value for e in unit.stored_entries(group)] == stored
    probes = [0, 7, 21, 15, 22, 99, 3, 7]
    for first, second in zip(probes[::2], probes[1::2]):
        results = search_beat(unit, sim, [first, second])
        assert results == [expected_result(first, stored),
                           expected_result(second, stored)]
    assert expected_result(7, stored).match_count == 2


def test_custom_mapping_write_and_search_in_one_cycle():
    """An update beat, then a search beat on the next cycle: the update
    path is one stage longer, so both reach the blocks in the same
    cycle -- one block per group takes the write on its A/B ports while
    every block's C port takes a key."""
    unit, sim = interleaved_unit()
    stored = list(range(100, 116)) + [200, 201]
    for base in range(0, 16, 4):
        unit.issue_update(words(stored[base:base + 4]))
        sim.step()
    sim.step(unit.update_latency + 2)
    # Block slot 0 of each group is full; the next beat lands in slot 1
    # (blocks 2 and 3) while the keys go to all four blocks.
    unit.issue_update(words(stored[16:]))
    sim.step()
    results = search_beat(unit, sim, [105, 201])
    assert results == [expected_result(105, stored),
                       expected_result(201, stored)]
    assert results[1].address == 17
    results = search_beat(unit, sim, [200, 115])
    assert results == [expected_result(200, stored),
                       expected_result(115, stored)]


# ----------------------------------------------------------------------
# independent-CAM mode
# ----------------------------------------------------------------------
def test_independent_mode_isolates_groups():
    unit, sim = make_unit(groups=2, replicate=False)
    unit.issue_update(words([111]), group=0)
    drain_update(unit, sim)
    unit.issue_update(words([222]), group=1)
    drain_update(unit, sim)
    results = search_unit(unit, sim, [111, 111])
    assert results[0].hit  # group 0 has it
    assert not results[1].hit  # group 1 does not


def test_independent_mode_requires_group():
    unit, _ = make_unit(groups=2, replicate=False)
    with pytest.raises(RoutingError, match="requires a target group"):
        unit.issue_update(words([1]))
    with pytest.raises(RoutingError, match="out of range"):
        unit.issue_update(words([1]), group=5)


def test_replicated_mode_rejects_group_argument():
    unit, _ = make_unit(groups=2)
    with pytest.raises(RoutingError, match="replicated"):
        unit.issue_update(words([1]), group=0)


def test_explicit_search_groups_must_be_distinct():
    unit, _ = make_unit(groups=2)
    with pytest.raises(RoutingError, match="distinct"):
        unit.issue_search([1, 2], groups=[0, 0])


# ----------------------------------------------------------------------
# resources
# ----------------------------------------------------------------------
def test_unit_resources_report():
    unit, _ = make_unit(entries=512, block_size=128, groups=2, bus=512)
    vec = unit.resources()
    assert vec.dsp == 512
    assert vec.lut > 0
