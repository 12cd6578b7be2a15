"""``serve-demo`` and ``loadgen`` end to end through ``main``: exit
codes and the manifest keys the CI smoke jobs read."""

import asyncio
import threading
from contextlib import contextmanager

import pytest

from repro import obs
from repro.cli import main
from repro.net import CamServer
from repro.service import CamService, demo_cam

#: ``extra`` keys the CI smoke jobs assert on.
CI_KEYS = ("repairs_completed", "shard_failures", "kills", "errors",
           "retries", "achieved_rps")


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


def run_manifest(tmp_path, capsys, *argv):
    path = tmp_path / "manifest.json"
    code = main([*argv, "--manifest-out", str(path)])
    out = capsys.readouterr().out
    assert "wrote manifest" in out
    manifest = obs.validate_manifest(obs.load_manifest(str(path)))
    assert set(CI_KEYS) <= set(manifest["extra"])
    return code, manifest


@contextmanager
def background_server():
    """A CamServer on an ephemeral port, served from its own thread."""
    ready = threading.Event()
    state = {}

    async def serve():
        cam = demo_cam(entries_per_shard=128, shards=2)
        async with CamService(cam, max_delay_s=0.001) as service:
            async with CamServer(service, port=0) as server:
                state["stop"] = asyncio.Event()
                state["loop"] = asyncio.get_running_loop()
                state["address"] = server.address
                ready.set()
                await state["stop"].wait()

    thread = threading.Thread(target=lambda: asyncio.run(serve()),
                              daemon=True)
    thread.start()
    assert ready.wait(10), "server thread did not start"
    try:
        yield state["address"]
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(10)
        assert not thread.is_alive(), "server thread did not stop"


def test_serve_demo_manifest(tmp_path, capsys):
    code, manifest = run_manifest(
        tmp_path, capsys, "serve-demo", "--requests", "150", "--shards", "2",
        "--entries-per-shard", "128", "--clients", "3")
    assert code == 0
    assert manifest["name"] == "cli_serve_demo"
    extra = manifest["extra"]
    assert extra["requests"] == extra["ok"] == 150
    assert extra["errors"] == 0
    assert extra["inserts"] > 0 and extra["deletes"] > 0
    assert manifest["config"]["concurrency"] == 3
    assert manifest["config"]["shards"] == 2


def test_serve_demo_repairs_a_poisoned_replica(tmp_path, capsys):
    code, manifest = run_manifest(
        tmp_path, capsys, "serve-demo", "--requests", "600",
        "--replicas", "2", "--poison-shard", "1", "--auto-repair")
    assert code == 0
    extra = manifest["extra"]
    assert extra["repairs_completed"] >= 1
    assert extra["shard_failures"] == 0
    assert extra["replicas"] == 2


def test_loadgen_against_a_live_server(tmp_path, capsys):
    with background_server() as (host, port):
        code, manifest = run_manifest(
            tmp_path, capsys, "loadgen", "--host", host,
            "--port", str(port), "--requests", "80", "--concurrency", "4",
            "--kill-after", "20")
        assert code == 0
        assert manifest["name"] == "net_loadgen"
        extra = manifest["extra"]
        assert extra["requests"] == extra["ok"] == 80
        assert extra["kills"] == 1 and extra["errors"] == 0
        assert extra["stored_words"] > 0

        code, manifest = run_manifest(
            tmp_path, capsys, "loadgen", "--host", host,
            "--port", str(port), "--mode", "open", "--rate", "4000",
            "--requests", "40", "--naive", "--pool", "2")
        assert code == 0
        extra = manifest["extra"]
        assert extra["requests"] == 40 and extra["errors"] == 0
        assert extra["offered_rps"] == 4000.0
        assert extra["stored_words"] == 0  # the server was seeded already
        assert manifest["config"]["rate"] == 4000.0
