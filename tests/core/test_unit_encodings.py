"""Unit-level tests for non-default result encodings and overrides."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BlockConfig,
    CamBlock,
    CamSession,
    CamType,
    CamUnit,
    CellConfig,
    Encoding,
    ResultEncoder,
    SearchResult,
    UnitConfig,
    ternary_entry,
)
from repro.sim import Simulator


def make_session(encoding, groups=2, output_buffer=None):
    block = BlockConfig(
        cell=CellConfig(cam_type=CamType.TERNARY, data_width=16),
        block_size=16,
        bus_width=128,
        encoding=encoding,
        output_buffer=output_buffer,
    )
    config = UnitConfig(block=block, num_blocks=4, default_groups=groups)
    return CamSession(config)


def test_count_encoding_through_unit():
    session = make_session(Encoding.COUNT)
    dup = ternary_entry(9, 0, 16)
    session.update([dup, dup, dup])
    result = session.search_one(9)
    assert result.encoding is Encoding.COUNT
    assert result.match_count == 3
    assert result.encoded(64) == 3


def test_one_hot_encoding_through_unit():
    session = make_session(Encoding.ONE_HOT)
    entries = [ternary_entry(v, 0, 16) for v in (1, 2, 1)]
    session.update(entries)
    result = session.search_one(1)
    assert result.match_vector == 0b101
    assert result.encoded(64) == 0b101


def test_binary_encoding_through_unit():
    session = make_session(Encoding.BINARY)
    dup = ternary_entry(4, 0, 16)
    session.update([dup, dup])
    result = session.search_one(4)
    encoded = result.encoded(64)
    address_bits = 6
    assert encoded & (1 << address_bits)           # hit flag
    assert encoded & (1 << (address_bits + 1))     # multi-match flag


def test_explicit_buffer_override_changes_unit_latency():
    buffered = make_session(Encoding.PRIORITY, output_buffer=True)
    plain = make_session(Encoding.PRIORITY, output_buffer=False)
    assert buffered.unit.search_latency == plain.unit.search_latency + 1
    # Both still answer correctly.
    for session in (buffered, plain):
        session.update([ternary_entry(7, 0, 16)])
        assert session.contains(7)


def test_multi_query_count_results_are_per_group():
    session = make_session(Encoding.COUNT, groups=2)
    dup = ternary_entry(3, 0, 16)
    session.update([dup, dup])
    first, second = session.search([3, 3])
    assert first.match_count == second.match_count == 2


def test_wildcard_entries_count_across_blocks():
    """Don't-care entries spilling into a second block still aggregate."""
    session = make_session(Encoding.COUNT, groups=1)
    # 20 wildcard entries: overflow block 0 (16 cells) into block 1.
    wildcard = ternary_entry(0, 0xFFFF, 16)
    session.update([wildcard] * 20)
    result = session.search_one(0xABCD)
    assert result.match_count == 20


# ----------------------------------------------------------------------
# differential: the unit's group encode vs the per-block encoders
# ----------------------------------------------------------------------
_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"
WIDTH = 8
NUM_BLOCKS = 8
keys = st.integers(0, (1 << WIDTH) - 1)


def _random_entries(seed, count):
    """``count`` ternary words, each bit a don't-care with p = 1/8, so
    keys hit often and many hit more than one cell."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << WIDTH, size=count)
    dont_care = (rng.integers(0, 1 << WIDTH, size=count)
                 & rng.integers(0, 1 << WIDTH, size=count)
                 & rng.integers(0, 1 << WIDTH, size=count))
    return [ternary_entry(int(v), int(d), WIDTH)
            for v, d in zip(values, dont_care)]


def _block_config(encoding, block_size):
    return BlockConfig(
        cell=CellConfig(cam_type=CamType.TERNARY, data_width=WIDTH),
        block_size=block_size,
        bus_width=512,
        encoding=encoding,
    )


def _content_vector(unit, group, key):
    """Golden match vector of one group: its blocks' stored words in
    slot order, holes never matching."""
    vector = 0
    for slot, block_id in enumerate(unit.table.blocks_in_group(group)):
        for cell, entry in enumerate(unit.blocks[block_id].slots()):
            if entry is not None and entry.matches(key):
                vector |= 1 << (slot * unit.block_size + cell)
    return vector


def _check_output(unit, queries, output, content=None):
    """Each group's answer is ``from_vector`` of the OR of its blocks'
    own encoder answers, rebased by slot, and its match vector is the
    content's (``content``, or the unit's content now)."""
    encoding = unit.config.block.encoding
    assert len(output) == len(queries)
    if content is None:
        content = [_content_vector(unit, group, key)
                   for group, key in queries]
    for (group, key), result, vector_now in zip(queries, output, content):
        vector = 0
        for slot, block_id in enumerate(unit.table.blocks_in_group(group)):
            local = unit.blocks[block_id].result  # ResultEncoder.encode
            assert local.key == key
            vector |= local.match_vector << (slot * unit.block_size)
        assert result == SearchResult.from_vector(key, vector, encoding)
        assert result.match_vector == vector_now


def _search_beats(unit, sim, beats):
    """Issue two-key search beats back to back; check every output."""
    expected = []
    pending = list(beats)
    for _ in range(len(beats) + unit.search_latency + 2):
        if pending:
            beat = pending.pop(0)
            unit.issue_search(beat)
            expected.append(list(enumerate(beat)))
        sim.step()
        output = unit.search_output
        if output is not None:
            _check_output(unit, expected.pop(0), output)
    assert not pending and not expected


@settings(max_examples=300 if _DEEP else 25, deadline=None)
@given(
    encoding=st.sampled_from(list(Encoding)),
    buffered=st.booleans(),
    order=st.permutations(range(NUM_BLOCKS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_group_results_equal_or_of_block_encodes(
    encoding, buffered, order, seed, data
):
    # 2K entries engage the blocks' output buffer; 256 do not.
    block_size = 256 if buffered else 32
    config = UnitConfig(block=_block_config(encoding, block_size),
                        num_blocks=NUM_BLOCKS, default_groups=2)
    assert config.block_buffered is buffered
    unit = CamUnit(config)
    sim = Simulator(unit)
    # Blocks at even positions of the permutation form group 0: a
    # custom mapping, non-contiguous unless the draw makes it so.
    mapping = [0] * NUM_BLOCKS
    for position, block_id in enumerate(order):
        mapping[block_id] = position % 2
    unit.issue_regroup(2, mapping)
    sim.step(unit.update_latency + 2)

    # Enough words to spill past each group's first block.
    count = data.draw(st.integers(1, 2 * block_size), label="count")
    entries = _random_entries(seed, count)
    for start in range(0, count, unit.words_per_beat):
        unit.issue_update(entries[start:start + unit.words_per_beat])
        sim.step()
    sim.step(unit.update_latency + 2)
    assert unit.stored_entries(0) == unit.stored_entries(1) == entries

    stored_keys = st.sampled_from([entry.value for entry in entries])
    beat = st.lists(st.one_of(stored_keys, keys), min_size=2, max_size=2)
    _search_beats(unit, sim, data.draw(st.lists(beat, min_size=1,
                                                max_size=6), label="before"))

    # Delete-by-content in the same run: its answer is group 0's view.
    doomed = data.draw(stored_keys, label="doomed")
    before = [_content_vector(unit, 0, doomed)]
    unit.issue_delete(doomed)
    sim.run_until(lambda: unit.search_output is not None,
                  unit.search_latency + 4)
    _check_output(unit, [(0, doomed)], unit.search_output, before)
    assert before[0] and _content_vector(unit, 0, doomed) == 0
    assert _content_vector(unit, 1, doomed) == 0

    _search_beats(unit, sim, data.draw(st.lists(beat, min_size=1,
                                                max_size=4), label="after"))


@settings(max_examples=300 if _DEEP else 25, deadline=None)
@given(
    encoding=st.sampled_from(list(Encoding)),
    buffered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 32),
    key=keys,
)
def test_standalone_block_result_is_encoder_of_match_bits(
    encoding, buffered, seed, count, key
):
    block = CamBlock(_block_config(encoding, 32), buffered=buffered)
    sim = Simulator(block)
    entries = _random_entries(seed, count)
    for start in range(0, count, block.words_per_beat):
        block.issue_update(entries[start:start + block.words_per_beat])
        sim.step()
    block.issue_search(key)
    assert sim.run_until(lambda: block.result_valid,
                         block.search_latency + 2) == block.search_latency
    # The key stays on the C ports, so the match lines still hold it.
    assert block.result == ResultEncoder(encoding, 32).encode(
        key, block.match_bits())
    assert block.result.key == key
