"""SearchBatch: the columnar answer every search backend returns.

Every engine (cycle, batch, audit) and the sharded facade (hash, range,
round-robin, replicated) must return a :class:`SearchBatch` whose
columns and per-key views equal :meth:`ReferenceCam.search_many`,
field for field, including the match vector and the encoded bus word.
"""

import os
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    CamType,
    Encoding,
    ReferenceCam,
    SearchBatch,
    SearchResult,
    binary_entry,
    open_session,
    range_entry,
    ternary_entry,
    unit_for_entries,
)
from repro.dsp.primitives import DSP_WIDTH, mask_for
from repro.errors import CapacityError

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

WIDTH = 8


def assert_batch_equals(batch, expected, size):
    """Columns, views, vectors and bus words all match ``expected``."""
    assert isinstance(batch, SearchBatch)
    assert len(batch) == len(expected)
    assert batch.keys.tolist() == [r.key for r in expected]
    assert batch.hits.tolist() == [r.hit for r in expected]
    assert batch.addresses.tolist() == [
        r.address if r.hit else -1 for r in expected]
    assert batch.counts.tolist() == [r.match_count for r in expected]
    for index, wanted in enumerate(expected):
        view = batch[index]
        assert type(view) is SearchResult
        assert view == wanted
        assert view.match_vector == wanted.match_vector
        assert view.encoded(size) == wanted.encoded(size)
    assert list(batch) == list(expected)
    assert batch == expected and expected == batch


# ----------------------------------------------------------------------
# single-unit engines
# ----------------------------------------------------------------------
@st.composite
def cam_entries(draw, cam_type):
    if cam_type is CamType.BINARY:
        return binary_entry(draw(st.integers(0, 255)), WIDTH)
    if cam_type is CamType.TERNARY:
        value = draw(st.integers(0, 255))
        dont_care = draw(st.sampled_from([0, 0x0F, 0x03, 0xF0, 0x81]))
        return ternary_entry(value & ~dont_care & 0xFF, dont_care, WIDTH)
    bits = draw(st.integers(0, 4))
    start = draw(st.integers(0, 255)) & ~((1 << bits) - 1)
    return range_entry(start, start + (1 << bits) - 1, WIDTH)


@st.composite
def unit_scenarios(draw):
    cam_type = draw(st.sampled_from(list(CamType)))
    encoding = draw(st.sampled_from(list(Encoding)))
    groups = draw(st.sampled_from([1, 2]))
    independent = groups > 1 and draw(st.booleans())
    config = unit_for_entries(32, block_size=8, data_width=WIDTH,
                              bus_width=64, cam_type=cam_type,
                              encoding=encoding, default_groups=groups)
    if independent:
        config = replace(config, replicate_updates=False)
    stored = [draw(st.lists(cam_entries(cam_type), min_size=0, max_size=16))
              for _ in range(groups if independent else 1)]
    # probe near stored values so hits and multi-matches are common
    near = [e.value ^ draw(st.sampled_from([0, 0, 1, 4])) for s in stored
            for e in s]
    probes = draw(st.lists(st.sampled_from(near) if near
                           else st.integers(0, 255), min_size=1, max_size=9))
    deleted = draw(st.sampled_from(near)) if near and draw(
        st.booleans()) else None
    reverse = independent and draw(st.booleans())
    return config, stored, probes, deleted, reverse


def run_unit_scenario(engine, scenario):
    config, stored, probes, deleted, reverse = scenario
    kwargs = {"audit_sample": 1.0} if engine == "audit" else {}
    session = open_session(config, engine=engine, **kwargs)
    independent = not config.replicate_updates
    references = [ReferenceCam(session.capacity, config.block.encoding)
                  for _ in stored]
    for group, (reference, entries) in enumerate(zip(references, stored)):
        if entries:
            session.update(entries, group=group if independent else None)
            reference.update(entries)
    if deleted is not None:
        session.delete(deleted)
        for reference in references:
            reference.delete(deleted)
    # key i rides group_ids[i % M] (independent mode: a distinct CAM each)
    group_ids = list(range(session.num_groups))
    if reverse:
        group_ids.reverse()
    batch = session.search(probes, groups=group_ids if reverse else None)
    expected = [
        references[group_ids[i % len(group_ids)] if independent else 0]
        .search(key)
        for i, key in enumerate(probes)
    ]
    assert_batch_equals(batch, expected, session.capacity)


@pytest.mark.parametrize("engine", ["batch", "cycle", "audit"])
@given(scenario=unit_scenarios())
@settings(max_examples=100 if _DEEP else 25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_batches_match_reference(engine, scenario):
    run_unit_scenario(engine, scenario)


# ----------------------------------------------------------------------
# batch-engine group stores: sorted index vs the XOR scan
# ----------------------------------------------------------------------
#: Stored values and probe bases, few enough that duplicates are common.
POOL = [0x00, 0x05, 0x10, 0x13, 0x1F, 0xF0]


def flat_scan(store, keys):
    """Every live ``(key index, address)`` match from the full
    ``(keys, fill)`` XOR matrix, sorted by key, then address."""
    n = store.fill
    diff = (keys[:, None] ^ store.values[None, :n]) & store.cares[None, :n]
    flat = np.flatnonzero((diff == 0) & store.live[None, :n])
    return np.divmod(flat, max(n, 1))


@st.composite
def pooled_entries(draw, cam_type):
    value = draw(st.sampled_from(POOL))
    if cam_type is CamType.BINARY:
        return value
    if cam_type is CamType.TERNARY:
        dont_care = draw(st.sampled_from([0x0F, 0x0F, 0x03]))
        return ternary_entry(value & ~dont_care, dont_care, WIDTH)
    bits = draw(st.sampled_from([2, 2, 4]))
    start = value & ~((1 << bits) - 1)
    return range_entry(start, start + (1 << bits) - 1, WIDTH)


@st.composite
def store_programs(draw):
    cam_type = draw(st.sampled_from(list(CamType)))
    groups = draw(st.sampled_from([1, 2]))
    config = unit_for_entries(32, block_size=8, data_width=WIDTH,
                              bus_width=64, cam_type=cam_type,
                              default_groups=groups)
    if groups > 1 and draw(st.booleans()):
        config = replace(config, replicate_updates=False)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("update"),
                  st.lists(pooled_entries(cam_type), min_size=1, max_size=9),
                  st.integers(0, 3)),
        st.tuples(st.just("delete"), st.sampled_from(POOL)),
        st.tuples(st.just("reset")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("set_groups"), st.sampled_from([1, 2, 4])),
    ), min_size=1, max_size=14))
    probes = draw(st.lists(
        st.builds(lambda v, flip, high: (v ^ flip) | high,
                  st.sampled_from(POOL), st.sampled_from([0, 0, 1, 4]),
                  st.sampled_from([0, 0, 1 << WIDTH, 1 << 40])),
        min_size=1, max_size=10))
    return config, steps, probes


def check_stores(session, keys):
    for store in session._distinct_stores():
        live = store.cares[:store.fill][store.live[:store.fill]]
        uniform = live.size == 0 or (live == live[0]).all()
        assert bool(store._sorted_index()) == uniform
        rows, cols = store.matches(keys)
        want_rows, want_cols = flat_scan(store, keys)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()


@given(program=store_programs())
@settings(max_examples=300 if _DEEP else 60, deadline=None)
def test_group_store_matches_equal_the_flat_scan(program):
    """Searches interleaved with every write: a uniform-care store's
    sorted index answers exactly like the XOR scan, so no write may
    leave a stale index behind."""
    config, steps, probes = program
    session = open_session(config, engine="batch")
    keys = np.asarray(probes, dtype=np.int64) & mask_for(DSP_WIDTH)
    saved = session.snapshot()
    check_stores(session, keys)
    for step in steps:
        op = step[0]
        if op == "update":
            independent = not config.replicate_updates
            group = step[2] % session.num_groups if independent else None
            with suppress(CapacityError):  # the fitting beats land
                session.update(step[1], group=group)
        elif op == "delete":
            session.delete(step[1])
        elif op == "reset":
            session.reset()
        elif op == "snapshot":
            saved = session.snapshot()
        elif op == "restore":
            session.restore(saved)
        else:
            session.set_groups(step[1])
        check_stores(session, keys)
        session.search(probes)


@st.composite
def sorted_matches(draw, parts):
    """``parts`` disjoint ``(rows, cols)`` arrays over up to 8 keys,
    each sorted by row, then column, plus a strictly ascending table."""
    steps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    table = np.cumsum(steps)
    owner = draw(st.lists(st.integers(0, parts - 1), min_size=8,
                          max_size=8))
    pairs = draw(st.sets(st.tuples(st.integers(0, 7),
                                   st.integers(0, len(steps) - 1))))
    matches = []
    for part in range(parts):
        mine = sorted(p for p in pairs if owner[p[0]] == part)
        matches.append((np.asarray([r for r, _ in mine], dtype=np.int64),
                        np.asarray([c for _, c in mine], dtype=np.int64)))
    return matches, table


@given(program=sorted_matches(parts=3))
@settings(max_examples=200 if _DEEP else 50, deadline=None)
def test_fast_paths_equal_the_sorted_paths(program):
    """An ascending rebase table and disjoint gathers skip their
    re-sort and must still give the fully sorted answer."""
    matches, table = program
    keys = np.arange(8) + 100
    merged = SearchBatch.gather(keys, matches, Encoding.PRIORITY)
    assert SearchBatch.gather(keys, matches, Encoding.PRIORITY,
                              disjoint=True) == merged
    assert merged.rebase(table, ascending=True) == merged.rebase(table)
    for rows, cols in matches:
        part = SearchBatch(keys, rows, cols)
        assert part.rebase(table, ascending=True) == part.rebase(table)


# ----------------------------------------------------------------------
# sharded facade
# ----------------------------------------------------------------------
SHARDED = [
    pytest.param({"shards": 3, "policy": "hash"}, id="hash"),
    pytest.param({"shards": 3, "policy": "range"}, id="range"),
    pytest.param({"shards": 3, "policy": "round_robin"}, id="round_robin"),
    pytest.param({"shards": 2, "policy": "hash", "replicas": 2},
                 id="hash-R2"),
    pytest.param({"shards": 2, "policy": "round_robin", "replicas": 2},
                 id="round_robin-R2"),
]


def sharded_config():
    return unit_for_entries(32, block_size=16, data_width=WIDTH,
                            bus_width=64)


def check_sharded(cam, reference, probes):
    assert_batch_equals(cam.search(probes), reference.search_many(probes),
                        cam.capacity)


@pytest.mark.parametrize("layout", SHARDED)
@given(
    # a small key space makes duplicate stored keys (and, striped
    # round-robin, cross-shard duplicates) common
    chunks=st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=6),
                    min_size=1, max_size=4),
    deletes=st.lists(st.integers(0, 15), max_size=3),
    probes=st.lists(st.integers(0, 17), min_size=1, max_size=12),
)
@settings(max_examples=120 if _DEEP else 30, deadline=None)
def test_sharded_batches_match_reference(layout, chunks, deletes, probes):
    cam = open_session(sharded_config(), engine="batch", **layout)
    reference = ReferenceCam(cam.capacity)
    for chunk in chunks:
        cam.update(chunk)
        reference.update([binary_entry(v, WIDTH) for v in chunk])
    check_sharded(cam, reference, probes)
    for key in deletes:
        assert cam.delete(key) == reference.delete(key)
    check_sharded(cam, reference, probes)

    twin = open_session(sharded_config(), engine="batch", **layout)
    twin.restore(cam.snapshot())
    check_sharded(twin, reference, probes)
    twin.update(chunks[0])  # global addresses continue after the restore
    twin_reference = ReferenceCam(cam.capacity)
    twin_reference.restore(reference.snapshot())
    twin_reference.update([binary_entry(v, WIDTH) for v in chunks[0]])
    check_sharded(twin, twin_reference, probes)

    cam.reset()
    reference.reset()
    check_sharded(cam, reference, probes)
    cam.update(chunks[-1])
    reference.update([binary_entry(v, WIDTH) for v in chunks[-1]])
    check_sharded(cam, reference, probes)


def test_cross_shard_duplicates_take_the_lowest_global_address():
    cam = open_session(sharded_config(), engine="batch", shards=3,
                       policy="round_robin")
    cam.update([5, 9, 5, 5, 9])  # 5 at 0, 2, 3 on shards 0, 2, 0
    cam.delete(9)
    batch = cam.search([5, 9, 7])
    assert batch.hits.tolist() == [True, False, False]
    assert batch.addresses.tolist() == [0, -1, -1]
    assert batch.counts.tolist() == [3, 0, 0]
    assert batch[0].match_vector == 0b1101


def test_priority_is_the_lowest_global_address_not_the_first_local():
    cam = open_session(sharded_config(), engine="batch", shards=2,
                       policy="round_robin")
    cam.update_shard(0, [7], addresses=[5])
    assert cam.search_shard(0, [7]).addresses.tolist() == [5]
    cam.update_shard(0, [7, 8], addresses=[2, 0])  # bound out of order
    part = cam.search_shard(0, [7, 8])
    assert part.addresses.tolist() == [2, 0]
    assert part[0].match_vector == (1 << 5) | (1 << 2)
    assert cam.search([8, 7]).addresses.tolist() == [0, 2]
    twin = open_session(sharded_config(), engine="batch", shards=2,
                        policy="round_robin")
    assert not twin.search_shard(0, [7]).hits[0]
    twin.restore(cam.snapshot())  # the restored table is out of order too
    assert twin.search_shard(0, [7, 8]).addresses.tolist() == [2, 0]


def test_ternary_round_robin_shards_match_reference():
    config = unit_for_entries(32, block_size=16, data_width=WIDTH,
                              bus_width=64, cam_type=CamType.TERNARY,
                              encoding=Encoding.BINARY)
    cam = open_session(config, engine="batch", shards=2,
                       policy="round_robin")
    reference = ReferenceCam(cam.capacity, Encoding.BINARY)
    entries = [ternary_entry(0x10, 0x0F, WIDTH), binary_entry(0x13, WIDTH),
               ternary_entry(0x00, 0xFF, WIDTH), binary_entry(0x13, WIDTH)]
    cam.update(entries)
    reference.update(entries)
    check_sharded(cam, reference, [0x13, 0x1F, 0x20, 0x00])


# ----------------------------------------------------------------------
# equality with sequences of results
# ----------------------------------------------------------------------
def sample_batch():
    config = unit_for_entries(32, block_size=8, data_width=WIDTH,
                              bus_width=64, encoding=Encoding.ONE_HOT)
    session = open_session(config, engine="batch")
    session.update([3, 4, 3])
    return session.search([3, 4, 9])


def test_batch_equals_list_in_both_operand_orders():
    batch = sample_batch()
    results = [
        SearchResult.from_vector(3, 0b101, Encoding.ONE_HOT),
        SearchResult.from_vector(4, 0b010, Encoding.ONE_HOT),
        SearchResult.from_vector(9, 0, Encoding.ONE_HOT),
    ]
    assert batch == results and results == batch
    assert batch == tuple(results) and tuple(results) == batch
    assert not batch != results and not results != batch
    assert batch == sample_batch()
    assert batch != results[:2] and results[:2] != batch
    assert batch != results + results[:1]
    assert batch != "not results" and batch != 3


@pytest.mark.parametrize("field, value", [
    ("key", 5),
    ("hit", False),
    ("address", 2),
    ("match_vector", 0b111),
    ("match_count", 3),
    ("encoding", Encoding.PRIORITY),
])
def test_batch_differs_from_list_on_any_field(field, value):
    batch = sample_batch()
    results = list(batch)
    results[0] = replace(results[0], **{field: value})
    assert batch != results and results != batch
    assert not batch == results and not results == batch


def test_views_support_sequence_protocol():
    batch = sample_batch()
    assert batch[-1].key == 9 and not batch[-1].hit
    assert [r.key for r in batch[1:]] == [4, 9]
    assert batch.index(batch[1]) == 1
    assert batch[1] in batch
    with pytest.raises(TypeError):
        hash(batch)
