"""The write edge: one checked ``(value, care)`` array per update.

Every public ``update`` takes ints, ``np.integer`` values, 1-D integer
arrays, ``(n, 2)`` int64 rows or :class:`CamEntry` values, converts
them once (:func:`repro.core.mask.entry_rows`) and hands the rows down.
Whatever form a write arrives in, the cycle, batch and audit engines and
the sharded facade at R = 1 and R = 2 must answer like
:class:`ReferenceCam`, hold the same content hash as the same content
written as entries, charge the same cycles per call, and survive a
snapshot -> restore round trip bit for bit.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CamType,
    ReferenceCam,
    binary_entry,
    open_session,
    range_entry,
    ternary_entry,
    unit_for_entries,
)
from repro.core.mask import entry_rows
from repro.dsp.primitives import DSP_WIDTH, mask_for
from repro.service import ShardedCam

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

WIDTH = 10
FULL = mask_for(DSP_WIDTH)
#: every form a write may take; the int forms only fit a binary CAM
INT_FORMS = ("ints", "np_int64", "np_uint64", "array", "uint_array",
             "mixed")
ANY_FORMS = ("entries", "rows", "tuple", "generator")


def config_for(cam_type):
    return unit_for_entries(64, block_size=16, data_width=WIDTH,
                            bus_width=80, cam_type=cam_type)


@st.composite
def entries(draw, cam_type):
    value = draw(st.integers(0, (1 << WIDTH) - 1))
    if cam_type is CamType.BINARY:
        return binary_entry(value, WIDTH)
    if cam_type is CamType.TERNARY:
        dont_care = draw(st.sampled_from([0, 0x3, 0xF0, 0x201]))
        # a don't-care bit may hold a 1: the snapshot canonicalises it
        return ternary_entry(value, dont_care, WIDTH)
    bits = draw(st.integers(0, 5))
    start = value & ~((1 << bits) - 1)
    return range_entry(start, start + (1 << bits) - 1, WIDTH)


def as_form(words, form):
    """The same words (entries) written in one of the accepted forms."""
    values = [word.value for word in words]
    if form == "ints":
        return values
    if form == "np_int64":
        return [np.int64(value) for value in values]
    if form == "np_uint64":
        return [np.uint64(value) for value in values]
    if form == "array":
        return np.array(values, dtype=np.int64)
    if form == "uint_array":
        return np.array(values, dtype=np.uint16)
    if form == "mixed":
        return [word if index % 2 else word.value
                for index, word in enumerate(words)]
    if form == "rows":
        return np.array([(word.value & FULL, ~word.mask & FULL)
                         for word in words], dtype=np.int64)
    if form == "tuple":
        return tuple(words)
    if form == "generator":
        return (word for word in words)
    return list(words)


@st.composite
def programs(draw):
    cam_type = draw(st.sampled_from(list(CamType)))
    forms = ANY_FORMS + (INT_FORMS if cam_type is CamType.BINARY else ())
    steps = []
    stored = []
    for _ in range(draw(st.integers(1, 5))):
        if stored and draw(st.integers(0, 3)) == 0:
            steps.append(("delete", draw(st.sampled_from(stored)).value))
            continue
        words = draw(st.lists(entries(cam_type), min_size=1, max_size=9))
        stored += words
        steps.append(("update", words, draw(st.sampled_from(forms))))
    near = [word.value ^ draw(st.sampled_from([0, 1, 8])) for word in stored]
    probes = draw(st.lists(st.sampled_from(near), min_size=1, max_size=8))
    return cam_type, steps, probes


def backends(cam_type):
    config = config_for(cam_type)
    policy = "hash" if cam_type is CamType.BINARY else "round_robin"
    return {
        "cycle": lambda: open_session(config, engine="cycle"),
        "batch": lambda: open_session(config, engine="batch"),
        "audit": lambda: open_session(config, engine="audit",
                                      audit_sample=1.0),
        "sharded": lambda: ShardedCam(config, shards=3, policy=policy),
        "sharded_r2": lambda: ShardedCam(config, shards=3, policy=policy,
                                         replicas=2),
    }


def replay(cam, steps, forms=True):
    """Run ``steps`` on ``cam``; the cycles each call took."""
    cycles = []
    for step in steps:
        before = cam.cycle
        if step[0] == "delete":
            cam.delete(step[1])
        else:
            _, words, form = step
            cam.update(as_form(words, form if forms else "entries"))
        cycles.append(cam.cycle - before)
    return cycles


@settings(max_examples=300 if _DEEP else 40, deadline=None)
@given(program=programs())
def test_every_write_form_lands_the_same_content(program):
    cam_type, steps, probes = program
    reference = ReferenceCam(64)
    for step in steps:
        if step[0] == "delete":
            reference.delete(step[1])
        else:
            reference.update(step[1])
    expected = reference.search_many(probes)
    hashes, cycles_of = {}, {}
    for name, build in backends(cam_type).items():
        cam = build()
        cycles = replay(cam, steps)
        assert list(cam.search(probes)) == expected, name
        # the same content written as entries: same hash, same cycles
        twin = build()
        assert replay(twin, steps, forms=False) == cycles, name
        snap = cam.snapshot()
        assert twin.snapshot().content_hash() == snap.content_hash(), name
        hashes[name], cycles_of[name] = snap.content_hash(), cycles
        # snapshot -> restore into a fresh backend is bit-identical
        restored = build()
        restored.restore(snap)
        assert restored.snapshot().to_binary() == snap.to_binary(), name
        assert list(restored.search(probes)) == expected, name
    # one unit content on every engine, one sharded content at any R
    assert hashes["cycle"] == hashes["batch"] == hashes["audit"]
    assert hashes["sharded"] == hashes["sharded_r2"]
    assert cycles_of["cycle"] == cycles_of["batch"] == cycles_of["audit"]
    assert cycles_of["sharded"] == cycles_of["sharded_r2"]


@pytest.mark.parametrize("cam_type", list(CamType))
def test_rows_pass_through_and_entries_convert_once(cam_type):
    entry = {CamType.BINARY: binary_entry(5, WIDTH),
             CamType.TERNARY: ternary_entry(5, 0x3, WIDTH),
             CamType.RANGE: range_entry(4, 7, WIDTH)}[cam_type]
    rows = entry_rows([entry], WIDTH, cam_type)
    assert rows.dtype == np.int64 and rows.shape == (1, 2)
    assert rows.tolist() == [[entry.value, ~entry.mask & FULL]]
    assert entry_rows(rows, WIDTH, cam_type) is rows
