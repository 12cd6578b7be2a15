"""Tests for the stack benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import asyncio
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from helpers import (  # noqa: E402
    LiveModel,
    Span,
    answer_of,
    covered_time,
    reference_slots,
    scaled_seconds,
    self_times,
    sharded_slots,
    tail_percentile,
)
from tracer import Tracer  # noqa: E402


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [1, 5, 11, 15, 20, 50, 100, 999, 1000, 5000])
def test_tail_percentile_keeps_ten_samples_beyond(count):
    samples = list(range(1, count + 1))
    random.Random(count).shuffle(samples)
    value, q = tail_percentile(samples, 0.99)
    if count >= 20:
        assert sum(1 for s in samples if s > value) >= 10
    else:
        assert value == -(-count // 2)  # the median is the floor
    assert q == pytest.approx(value / count)


def test_tail_percentile_reports_the_requested_rank_when_samples_allow():
    value, q = tail_percentile(range(1, 1001), 0.99)
    assert (value, q) == (990, 0.99)
    assert tail_percentile(range(1, 101), 0.99) == (90, 0.9)


def test_tail_percentile_never_drops_below_the_median():
    value, q = tail_percentile(range(1, 16), 0.99)
    assert value == 8 and q == pytest.approx(8 / 15)
    assert tail_percentile([7.0], 0.99) == (7.0, 1.0)
    with pytest.raises(ValueError):
        tail_percentile([], 0.99)


def test_scaled_seconds_scales_only_the_cpu_part():
    # 4 s of CPU work on a host at half speed, 6 s spent waiting.
    assert scaled_seconds(10.0, 4.0, 2.0) == pytest.approx(8.0)
    assert scaled_seconds(5.0, 0.0, 3.0) == pytest.approx(5.0)
    # A CPU clock read a little past the wall clock counts as all CPU.
    assert scaled_seconds(3.0, 3.1, 1.5) == pytest.approx(2.0)


def test_round_rate_is_at_the_reference_speed():
    from workloads import Round

    result = Round(keys=100, seconds=2.0, cpu=1.0, slowdown=2.0,
                   lookup_lat=[0.5])
    assert result.scale == pytest.approx(0.75)
    assert result.rate == pytest.approx(100 / 1.5)
    assert Round(keys=10, seconds=1.0, cpu=1.0).rate == pytest.approx(10)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_covered_time_merges_overlaps_and_clips_to_the_parent():
    assert covered_time(0, 10, [(1, 4), (3, 6), (9, 12), (-5, -1)]) == 6
    assert covered_time(0, 10, []) == 0
    assert covered_time(2, 4, [(0, 10)]) == 2


def test_self_time_with_overlapping_and_shared_children():
    spans = [
        Span("service", "a", start=0, end=10),
        Span("service", "b", start=4, end=8),
        Span("sharded", "x", parents=(0,), start=1, end=4),
        Span("sharded", "y", parents=(0, 1), start=3, end=6),
        Span("sharded", "z", parents=(0,), start=9, end=12),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 5 - 1)
    assert own[1] == pytest.approx(4 - 2)
    assert own[2:] == pytest.approx([3, 3, 3])


class _Inner:
    def work(self, seconds):
        time.sleep(seconds)


class _Outer:
    async def call(self, seconds):
        await asyncio.sleep(0)
        _Inner().work(seconds)
        await asyncio.sleep(seconds)
        _Inner().work(seconds)


def test_tracer_links_children_per_task_under_concurrency():
    tracer = Tracer()
    tracer._patch_async(_Outer, "call", "service", "call", lambda a, k: 1)
    tracer._patch_sync(_Inner, "work", "batch", "work", lambda a, k: 1)
    try:
        async def main():
            await asyncio.gather(_Outer().call(0.01), _Outer().call(0.02))
        asyncio.run(main())
    finally:
        tracer.uninstall()
    assert not hasattr(_Outer.call, "__wrapped__")
    outer = [i for i, s in enumerate(tracer.spans) if s.layer == "service"]
    assert len(outer) == 2
    own = self_times(tracer.spans)
    for index in outer:
        children = [s for s in tracer.spans if s.parents == (index,)]
        assert len(children) == 2
        parent = tracer.spans[index]
        # The two calls overlap in time, yet each parent subtracts only
        # its own children.
        covered = sum(child.duration for child in children)
        assert own[index] == pytest.approx(parent.duration - covered)
    first, second = (tracer.spans[i] for i in outer)
    assert first.start < second.end and second.start < first.end


def test_tracer_links_every_layer_of_the_wire_stack():
    from repro.core.config import unit_for_entries
    from repro.net.client import CamClient
    from repro.net.server import CamServer
    from repro.service.scheduler import CamService
    from repro.service.sharded import ShardedCam

    async def main():
        cam = ShardedCam(unit_for_entries(64, block_size=16, data_width=32),
                         shards=2, policy="hash", engine="batch", replicas=2)
        async with CamService(cam) as service:
            async with CamServer(service, port=0) as server:
                async with CamClient(*server.address) as client:
                    await client.insert([5, 6, 7, 8])
                    tracer = Tracer()
                    tracer.install()
                    try:
                        await asyncio.gather(client.lookup_many([5, 9, 6]),
                                             client.insert([10, 11]),
                                             client.delete(7))
                    finally:
                        tracer.uninstall()
        return tracer

    tracer = asyncio.run(main())
    spans = tracer.spans
    by_layer = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)
    assert [s.op for s in by_layer["net"]] == ["lookup", "insert", "delete"]
    assert len(by_layer["service"]) == 3 + 1 + 1
    for layer, above in (("service", "net"), ("sharded", "service"),
                         ("replica", "sharded"), ("batch", "replica")):
        for span in by_layer[layer]:
            assert span.parents, f"{layer} span {span.op} has no parent"
            assert {spans[p].layer for p in span.parents} == {above}
    writes = [s for s in by_layer["replica"] if s.op != "search"]
    assert sum(s.cycles for s in writes) == 2 * sum(
        s.preferred_cycles for s in writes)
    metrics = tracer.layer_metrics()
    assert metrics["net.frames"] == 3
    assert metrics["replica.write_amplification"] == 2.0
    assert metrics["sharded.partition_us_per_word"] > 0
    from repro.net import protocol
    assert not hasattr(protocol.encode_frame, "__wrapped__")


# ----------------------------------------------------------------------
# reference model
# ----------------------------------------------------------------------
def _small_stream():
    from repro.service.workload import table09_probe_stream

    return table09_probe_stream(64, seed=3, num_vertices=200,
                                num_edges=600, max_probes=300)


def test_live_model_matches_reference_cam_on_a_small_stream():
    from repro.core.mask import binary_entry
    from repro.core.reference import ReferenceCam

    stored, probes = _small_stream()
    rng = random.Random(7)
    model = LiveModel(stored)
    reference = ReferenceCam(256)
    reference.update([binary_entry(v, 32) for v in stored])
    universe = sorted(set(probes))
    for step, key in enumerate(probes):
        if step % 7 == 3:
            words = rng.sample(universe, 3)
            model.insert(words)
            reference.update([binary_entry(v, 32) for v in words])
        elif step % 11 == 5:
            assert model.delete(key) == answer_of(reference.delete(key))
        assert model.lookup(key) == answer_of(reference.search(key))
    assert model.slots == reference_slots(reference)


def test_sharded_snapshot_reads_back_as_global_slots():
    from repro.core.config import unit_for_entries
    from repro.service.sharded import ShardedCam

    stored, probes = _small_stream()
    cam = ShardedCam(unit_for_entries(64, block_size=16, data_width=32),
                     shards=4, policy="hash", engine="batch", replicas=2)
    model = LiveModel()
    for start in range(0, len(stored), 8):
        cam.update(stored[start:start + 8])
        model.insert(stored[start:start + 8])
    for key in probes[:40:4]:
        assert answer_of(cam.delete(key)) == model.delete(key)
    for key in probes:
        assert answer_of(cam.search([key])[0]) == model.lookup(key)
    assert sharded_slots(cam.snapshot()) == model.slots
