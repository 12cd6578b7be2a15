"""The unified constructor (`repro.open_session`), the only way to
pick an execution engine."""

import pytest

import repro
from repro.core import CamSession, unit_for_entries
from repro.core.batch import AuditSession, BatchSession, open_session
from repro.errors import ConfigError
from repro.service.sharded import ShardedCam


@pytest.fixture
def config():
    return unit_for_entries(64, block_size=16, data_width=16, bus_width=128)


# ----------------------------------------------------------------------
# open_session dispatch
# ----------------------------------------------------------------------
def test_top_level_reexport_is_the_same_function():
    assert repro.open_session is open_session
    assert "open_session" in repro.__all__


@pytest.mark.parametrize("engine,cls", [
    ("cycle", CamSession),
    ("batch", BatchSession),
    ("audit", AuditSession),
])
def test_engine_selects_session_class(config, engine, cls):
    session = open_session(config, engine=engine)
    assert type(session) is cls


def test_cam_session_has_no_engine_dispatch(config):
    with pytest.raises(TypeError):
        CamSession(config, engine="batch")
    assert not issubclass(BatchSession, CamSession)
    assert issubclass(AuditSession, BatchSession)


def test_unknown_engine_rejected(config):
    with pytest.raises(ConfigError):
        open_session(config, engine="warp")


def test_session_kwargs_forwarded(config):
    session = open_session(config, engine="batch", name="front_door")
    assert session.name == "front_door"


# ----------------------------------------------------------------------
# sharded construction through the same front door
# ----------------------------------------------------------------------
def test_shards_gt_one_returns_sharded_cam(config):
    cam = open_session(config, engine="batch", shards=4, policy="hash")
    assert isinstance(cam, ShardedCam)
    assert cam.num_shards == 4
    # satisfies the session protocol end to end
    cam.update([7, 9])
    assert cam.search_one(7).hit
    assert cam.search_one(7).address == 0
    assert cam.delete(9).hit
    assert not cam.contains(9)


def test_shards_one_stays_unsharded(config):
    assert type(open_session(config, shards=1)) is CamSession


def test_invalid_shard_count_rejected(config):
    with pytest.raises(ConfigError):
        open_session(config, shards=0)
