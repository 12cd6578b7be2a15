"""Snapshot/restore protocol: versioned capture of CAM content.

The restore guarantee is *architectural*, not just content equality: a
restored CAM must reproduce bit-identical match vectors and priority
encoding AND land future inserts on the same addresses -- which means
deleted-slot holes (the fill pointer never rewinds) must survive the
round trip.  Property suites drive arbitrary insert/delete
interleavings through every engine; codec tests pin the JSON and
binary framings; a golden fixture under ``goldens/`` freezes the v1
format against accidental change.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    CamSession,
    CamType,
    ReferenceCam,
    WideCamSession,
    binary_entry,
    open_session,
    ternary_entry,
    unit_for_entries,
)
from repro.errors import SnapshotError
from repro.service import CamSnapshot, ShardedCam, SnapshotEntry
from repro.service.snapshot import SNAPSHOT_MAGIC, SNAPSHOT_VERSION

WIDTH = 12
KEYSPACE = 64
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

keys = st.integers(min_value=0, max_value=KEYSPACE - 1)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(keys, min_size=1, max_size=5)),
        st.tuples(st.just("delete"), keys),
    ),
    min_size=1,
    max_size=24,
)

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"
EXAMPLES = 30 if _DEEP else 10

common_settings = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_config(**kwargs):
    return unit_for_entries(32, block_size=16, data_width=WIDTH,
                            bus_width=64, **kwargs)


def apply(session, workload, budget):
    """Drive a workload, respecting the capacity bound."""
    live = 0
    for op, payload in workload:
        if op == "insert":
            if live + len(payload) > budget:
                continue
            session.update(payload)
            live += len(payload)
        else:
            session.delete(payload)


def assert_equivalent(restored, original, *, insert_probe=True):
    """Bit-identical search behaviour now AND after future inserts."""
    for key in range(KEYSPACE):
        ours, gold = restored.search_one(key), original.search_one(key)
        assert (ours.hit, ours.address, ours.match_vector, ours.match_count) \
            == (gold.hit, gold.address, gold.match_vector,
                gold.match_count), key
    if not insert_probe:
        return
    # The architectural part: both CAMs must place the next insert on
    # the same address (deleted-slot holes and fill pointers agree).
    if original.occupancy < original.capacity:
        probe = KEYSPACE - 1
        restored.update([probe])
        original.update([probe])
        ours, gold = restored.search_one(probe), original.search_one(probe)
        assert (ours.hit, ours.address, ours.match_vector) \
            == (gold.hit, gold.address, gold.match_vector)


# ----------------------------------------------------------------------
# round trips per engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["cycle", "batch", "audit"])
@given(workload=ops)
@common_settings
def test_unit_roundtrip_is_bit_identical(engine, workload):
    original = open_session(small_config(), engine)
    apply(original, workload, original.capacity - 1)
    snap = original.snapshot()
    restored = open_session(small_config(), engine)
    restored.restore(snap)
    assert restored.snapshot().content_hash() == snap.content_hash()
    assert_equivalent(restored, original)


@given(workload=ops)
@common_settings
def test_roundtrip_across_engines(workload):
    """A cycle-engine snapshot restored into the batch engine (and
    vice versa) serves identical results: the format is canonical."""
    cycle = open_session(small_config(), "cycle")
    batch = open_session(small_config(), "batch")
    apply(cycle, workload, cycle.capacity - 1)
    apply(batch, workload, batch.capacity - 1)
    assert cycle.snapshot().content_hash() == batch.snapshot().content_hash()
    crossed = open_session(small_config(), "batch")
    crossed.restore(cycle.snapshot())
    assert_equivalent(crossed, cycle)


def test_deleted_slot_reuse_order_survives_restore():
    """Holes are state: a restored CAM reuses (or rather, refuses to
    reuse) deleted slots exactly like the original."""
    original = open_session(small_config(), "batch")
    original.update([1, 2, 3, 4, 5])
    original.delete(2)
    original.delete(4)

    restored = open_session(small_config(), "batch")
    restored.restore(original.snapshot())

    # Fill pointers never rewind: the next insert goes to address 5 on
    # both, not into the address-1 or address-3 holes.
    for cam in (original, restored):
        cam.update([50])
        assert cam.search_one(50).address == 5
    assert_equivalent(restored, original)


def masked_entry(key):
    """A ternary entry that ignores the key's low ``key % 3`` bits."""
    dont_care = (1 << key % 3) - 1
    return ternary_entry(key & ~dont_care, dont_care, WIDTH)


#: mode -> (unit config, word builder); independent mode has two groups.
RESTORE_MODES = {
    "replicated": (small_config(), int),
    "independent": (replace(small_config(default_groups=2),
                            replicate_updates=False), int),
    "ternary": (small_config(cam_type=CamType.TERNARY), masked_entry),
}


@pytest.mark.parametrize("mode", sorted(RESTORE_MODES))
@given(workload=ops)
@common_settings
def test_restore_cycle_cost_is_engine_independent(mode, workload):
    """Both engines replay a snapshot at the same cycle cost and into
    the same content, whatever the group mode and CAM type."""
    config, word = RESTORE_MODES[mode]
    groups = ([None] if config.replicate_updates
              else list(range(config.default_groups)))
    cycles, hashes = {}, {}
    for engine in ("cycle", "batch"):
        original = open_session(config, engine)
        for group in groups:  # a hole at the front of every group
            original.update([word(KEYSPACE - 1)], group=group)
        original.delete(KEYSPACE - 1)
        fill = dict.fromkeys(groups, 1)
        for turn, (op, payload) in enumerate(workload):
            if op == "delete":
                original.delete(payload)
                continue
            group = groups[turn % len(groups)]
            if fill[group] + len(payload) < original.capacity:
                original.update([word(key) for key in payload], group=group)
                fill[group] += len(payload)
        restored = open_session(config, engine)
        restored.restore(original.snapshot())
        cycles[engine] = restored.cycle
        hashes[engine] = restored.snapshot().content_hash()
    assert cycles["cycle"] == cycles["batch"]
    assert hashes["cycle"] == hashes["batch"]


# ----------------------------------------------------------------------
# composite backends: sharded, replicated, wide, reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("replicas", [1, 2])
@given(workload=ops)
@common_settings
def test_sharded_roundtrip(replicas, workload):
    def build():
        return ShardedCam(small_config(), shards=2, engine="batch",
                          replicas=replicas)

    original = build()
    apply(original, workload, original.sessions[0].capacity - 1)
    snap = original.snapshot()
    assert snap.kind == "sharded"
    restored = build()
    restored.restore(snap)
    assert restored.snapshot().content_hash() == snap.content_hash()
    assert_equivalent(restored, original)


def test_wide_key_roundtrip():
    def build():
        return WideCamSession(capacity=32, key_width=96, block_size=16,
                              bus_width=128)

    original = build()
    probes = [(1 << 90) | 0xABC, (1 << 64) | 7, 0xDEAD]
    original.update(probes)
    snap = original.snapshot()
    assert snap.kind == "wide" and len(snap.children) == 2
    restored = build()
    restored.restore(snap)
    assert restored.snapshot().content_hash() == snap.content_hash()
    for probe in probes:
        ours, gold = restored.search_one(probe), original.search_one(probe)
        assert (ours.hit, ours.address) == (gold.hit, gold.address), probe
    # A key differing only in a high lane must still miss after restore.
    assert not restored.contains(probes[0] ^ (1 << 90))


def test_reference_cam_roundtrip():
    original = ReferenceCam(16)
    original.update([binary_entry(v, WIDTH) for v in (3, 5, 7)])
    original.delete(5)
    restored = ReferenceCam(16)
    restored.restore(original.snapshot(), data_width=WIDTH)
    for key in (3, 5, 7, 9):
        ours, gold = restored.search(key), original.search(key)
        assert (ours.hit, ours.address, ours.match_vector) \
            == (gold.hit, gold.address, gold.match_vector), key


def test_intersector_state_survives_restore():
    """An app-level consumer: the triangle-counting intersector's CAM
    can be checkpointed between intersections."""
    from repro.apps.tc.intersect import CamIntersector

    stored = list(range(0, 96, 3))
    stream = list(range(0, 96, 2))
    expected = len(set(stored) & set(stream))

    first = CamIntersector(total_entries=128, block_size=32,
                           engine="batch")
    common, _ = first.intersect(stored, stream)
    assert common == expected

    second = CamIntersector(total_entries=128, block_size=32,
                            engine="batch")
    second.session.restore(first.session.snapshot())
    # The restored session holds the stored list (replicated groups
    # included); streaming the keys again finds the same matches.
    again, _ = second.intersect(stored, stream)
    assert again == expected


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
@given(workload=ops)
@common_settings
def test_json_and_binary_codecs_roundtrip(workload):
    session = open_session(small_config(), "batch")
    apply(session, workload, session.capacity)
    snap = session.snapshot()
    assert CamSnapshot.from_json(snap.to_json()).content_hash() \
        == snap.content_hash()
    assert CamSnapshot.from_binary(snap.to_binary()).content_hash() \
        == snap.content_hash()


def test_save_load_both_formats(tmp_path):
    session = open_session(small_config(), "batch")
    session.update([1, 2, 3])
    session.delete(2)
    snap = session.snapshot()
    for name in ("snap.json", "snap.bin"):
        path = tmp_path / name
        snap.save(str(path))
        loaded = CamSnapshot.load(str(path))
        assert loaded.content_hash() == snap.content_hash()
        assert loaded.version == SNAPSHOT_VERSION


def test_corrupt_binary_is_rejected(tmp_path):
    with pytest.raises(SnapshotError):
        CamSnapshot.from_binary(b"NOTASNAP" + b"\x00" * 16)
    snap = open_session(small_config(), "batch").snapshot()
    with pytest.raises(SnapshotError):
        CamSnapshot.from_binary(snap.to_binary() + b"junk")


def test_truncated_binary_raises_typed_error_at_every_cut():
    """Any strict prefix of a valid blob must raise SnapshotError --
    never a bare ``struct.error`` -- no matter where the cut lands
    (mid-magic, mid-version, mid-header, mid-entry, mid-child)."""
    session = open_session(small_config(), "batch")
    session.update([1, 2, 3, 4])
    session.delete(2)
    blob = session.snapshot().to_binary()
    for cut in range(len(blob)):
        with pytest.raises(SnapshotError):
            CamSnapshot.from_binary(blob[:cut])


def test_future_version_binary_rejected_with_typed_error():
    blob = open_session(small_config(), "batch").snapshot().to_binary()
    magic_len = len(SNAPSHOT_MAGIC)
    future = (blob[:magic_len]
              + (SNAPSHOT_VERSION + 1).to_bytes(2, "little")
              + blob[magic_len + 2:])
    with pytest.raises(SnapshotError, match="version"):
        CamSnapshot.from_binary(future)


def test_hostile_length_prefix_fails_fast():
    """A forged 4-billion-entry count must raise the typed error
    immediately (bounds check), not iterate until struct.error."""
    header = b'{"kind":"unit","meta":{}}'
    blob = (SNAPSHOT_MAGIC
            + SNAPSHOT_VERSION.to_bytes(2, "little")
            + len(header).to_bytes(4, "little") + header
            + (1).to_bytes(4, "little")            # one group ...
            + (0xFFFFFFFF).to_bytes(4, "little"))  # ... of 4G entries
    with pytest.raises(SnapshotError, match="truncated"):
        CamSnapshot.from_binary(blob)


slot_entries = st.one_of(
    st.just(SnapshotEntry.dead()),
    st.builds(
        SnapshotEntry.from_value_care,
        st.integers(min_value=0, max_value=(1 << 48) - 1),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
    ),
)


@given(groups=st.lists(st.lists(slot_entries, max_size=6), max_size=4),
       shards=st.integers(min_value=0, max_value=3))
@common_settings
def test_binary_codec_structural_roundtrip_with_holes(groups, shards):
    """Both codecs must reproduce the exact node structure -- group
    shapes, child order, and every slot triple including dead holes --
    not just the content hash."""
    child = CamSnapshot(kind="unit", meta={"engine": "batch"},
                        groups=groups)
    if shards:
        snap = CamSnapshot(kind="sharded",
                           meta={"shards": shards, "policy": "hash"},
                           children=[child] * shards)
    else:
        snap = child
    for decoded in (CamSnapshot.from_binary(snap.to_binary()),
                    CamSnapshot.from_json(snap.to_json())):
        assert decoded == snap
        assert decoded.live_entries == snap.live_entries
        assert decoded.total_entries == snap.total_entries


def test_incompatible_restore_is_rejected():
    snap = open_session(small_config(), "batch").snapshot()
    wider = open_session(
        unit_for_entries(32, block_size=16, data_width=16, bus_width=64),
        "batch")
    with pytest.raises(SnapshotError):
        wider.restore(snap)
    sharded = ShardedCam(small_config(), shards=2, engine="batch")
    with pytest.raises(SnapshotError):
        sharded.restore(snap)  # unit snapshot into a sharded facade


@pytest.mark.parametrize("replicas", [1, 2])
def test_incompatible_sharded_restore_fences_nothing(replicas):
    """A snapshot of another data width is a caller's mistake, not a
    backend fault: at every replica count the restore raises
    SnapshotError, fences no replica and leaves the content as it was."""
    narrow = ShardedCam(small_config(), shards=2, engine="batch")
    narrow.update([1, 2, 3])
    wide = ShardedCam(
        unit_for_entries(32, block_size=16, data_width=2 * WIDTH,
                         bus_width=64),
        shards=2, engine="batch", replicas=replicas)
    wide.update([4, 5, 6])
    before = wide.snapshot().content_hash()
    with pytest.raises(SnapshotError):
        wide.restore(narrow.snapshot())
    assert wide.degraded_shards == ()
    assert wide.snapshot().content_hash() == before


def test_snapshot_entry_canonicalisation():
    entry = binary_entry(0x0F, WIDTH)
    slot = SnapshotEntry.from_entry(entry)
    assert slot.live and slot.value == 0x0F
    assert SnapshotEntry.from_entry(None) == SnapshotEntry.dead()
    round_tripped = slot.to_entry(WIDTH)
    assert round_tripped.value == entry.value


# ----------------------------------------------------------------------
# golden fixture: the v1 format is frozen
# ----------------------------------------------------------------------
def golden_backend():
    session = open_session(small_config(), "batch")
    session.update([0x001, 0x00F, 0x030, 0x03F, 0x015])
    session.delete(0x00F)
    session.update([0x020])
    return session


def test_golden_snapshot_matches_fixture():
    """Regenerating the golden workload must reproduce the committed
    fixture byte-for-byte; a mismatch means the snapshot format or the
    engine's placement semantics changed (bump SNAPSHOT_VERSION)."""
    path = os.path.join(GOLDEN_DIR, "unit_batch_v1.json")
    with open(path, "r", encoding="utf-8") as handle:
        frozen = handle.read()
    snap = golden_backend().snapshot()
    assert snap.to_json() == frozen
    loaded = CamSnapshot.from_json(frozen)
    assert loaded.content_hash() == snap.content_hash()
    restored = open_session(small_config(), "batch")
    restored.restore(loaded)
    assert restored.search_one(0x020).address == 5
    assert not restored.contains(0x00F)
