"""The traffic driver over the wire: spec validation, both loop modes,
manifests (what ``python -m repro loadgen`` runs)."""

import asyncio

import pytest

from repro import obs
from repro.core import unit_for_entries
from repro.errors import ConfigError
from repro.net import CamClient, CamServer
from repro.service import CamService, ShardedCam, TrafficSpec, drive
from repro.service.workload import table09_probe_stream


def make_cam():
    config = unit_for_entries(128, block_size=16, data_width=24,
                              bus_width=96)
    return ShardedCam(config, shards=2, engine="batch")


def run_spec(spec, *, pipelined=True, pool_size=1):
    async def scenario():
        service = CamService(make_cam(), max_delay_s=0.001, max_batch=64)
        await service.start()
        server = CamServer(service, port=0)
        await server.start()
        try:
            host, port = server.address
            async with CamClient(host, port, pool_size=pool_size,
                                 pipelined=pipelined) as client:
                return await drive(client, spec)
        finally:
            await server.stop()
            await service.stop()

    return asyncio.run(scenario())


@pytest.mark.parametrize("kwargs", [
    {"rate": -1.0},
    {"requests": 0},
    {"concurrency": 0},
    {"rate": 0},
    {"batch": 0},
    {"kill_after": -1},
    {"insert_fraction": 0.8, "delete_fraction": 0.3},
    {"insert_words": 0},
])
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        TrafficSpec(**kwargs)


def test_table09_probe_stream_is_deterministic():
    stored_a, probes_a = table09_probe_stream(128, seed=3)
    stored_b, probes_b = table09_probe_stream(128, seed=3)
    assert stored_a == stored_b and probes_a == probes_b
    assert 0 < len(stored_a) <= int(128 * 0.6)
    assert probes_a
    stored_c, _ = table09_probe_stream(128, seed=4)
    assert stored_c != stored_a


def test_closed_loop_run():
    spec = TrafficSpec(requests=40, concurrency=4)
    report = run_spec(spec)
    assert report.requests == 40
    assert report.errors == 0
    assert report.ok == 40
    assert report.stored_words > 0  # seeded an empty server
    assert report.keys_probed == 40
    assert 0 < report.hits <= report.keys_probed
    assert report.wall_s > 0 and report.achieved_rps > 0
    assert len(report.latencies_s) == 40


def test_open_loop_run_records_offered_rate():
    spec = TrafficSpec(requests=30, concurrency=8, rate=5000.0, batch=2)
    report = run_spec(spec)
    assert report.requests == 30
    assert report.keys_probed == 60
    assert report.errors == 0
    assert report.offered_rps == 5000.0


def test_kill_after_recovers_with_zero_errors():
    spec = TrafficSpec(requests=60, concurrency=4, kill_after=20)
    report = run_spec(spec)
    assert report.kills == 1
    assert report.errors == 0, "retries must absorb the kill"
    assert report.requests == 60


def test_mixed_traffic_over_the_wire():
    spec = TrafficSpec(requests=80, concurrency=4, insert_fraction=0.2,
                       delete_fraction=0.1, seed=5)
    report = run_spec(spec, pipelined=False, pool_size=2)
    assert report.requests == report.ok == 80
    assert report.lookups + report.inserts + report.deletes == 80
    assert report.inserts > 0 and report.deletes > 0
    assert report.words_inserted > 0
    assert report.summary["cam"]["occupancy"] == (report.stored_words
                                                  + report.words_inserted)


def test_seed_phase_skipped_when_server_populated():
    async def scenario():
        service = CamService(make_cam(), max_delay_s=0.001)
        await service.start()
        server = CamServer(service, port=0)
        await server.start()
        try:
            host, port = server.address
            async with CamClient(host, port) as client:
                spec = TrafficSpec(requests=10, concurrency=2)
                first = await drive(client, spec)
                second = await drive(client, spec)
                return first, second
        finally:
            await server.stop()
            await service.stop()

    first, second = asyncio.run(scenario())
    assert first.stored_words > 0
    assert second.stored_words == 0  # occupancy non-zero: no re-seed
    assert first.hits == second.hits  # same probes, same content


def test_manifest_is_schema_valid():
    obs.reset()
    obs.enable(tracing=False)
    try:
        spec = TrafficSpec(requests=12, concurrency=2, kill_after=4)
        report = run_spec(spec)
        manifest = report.manifest(spec, "net_loadgen", {"pool": 1})
        obs.validate_manifest(manifest)
        assert manifest["name"] == "net_loadgen"
        assert manifest["config"]["kill_after"] == 4
        assert manifest["config"]["pool"] == 1
        assert manifest["extra"]["kills"] == 1
        assert manifest["extra"]["errors"] == 0
        assert manifest["extra"]["achieved_rps"] > 0
        assert "latency_p99_ms" in manifest["extra"]
        # the server's service summary rides along
        assert manifest["extra"]["capacity"] == 256
        assert manifest["extra"]["max_queue_depth"] >= 1
    finally:
        obs.disable()
        obs.reset()
