"""Conformance suite for the :class:`repro.core.CamStore` /
:class:`repro.core.CamBackend` protocols.

Every backend the service layer can be pointed at -- cycle, batch and
audit engine sessions, the sharded facade, replica sets -- must expose
the full ``CamBackend`` surface; the golden ``ReferenceCam`` satisfies
the minimal ``CamStore`` contract.  The checks are runtime
``isinstance`` probes (``issubclass`` is unsupported because the
protocols carry data members) plus behavioural smoke of the shared
surface so a renamed method cannot silently drop a backend out of the
protocol.
"""

import pytest

import repro
from repro.core import (
    ENGINES,
    CamBackend,
    CamSession,
    CamStore,
    CamType,
    ReferenceCam,
    SearchResult,
    binary_entry,
    range_entry,
    ternary_entry,
    unit_for_entries,
)
from repro.core.batch import AuditSession, BatchSession
from repro.errors import ConfigError
from repro.service import ReplicaSet, ShardedCam


def _config():
    return unit_for_entries(64, block_size=16, data_width=16, bus_width=128)


def _backends():
    config = _config()
    return {
        "cycle": CamSession(config),
        "batch": BatchSession(config),
        "audit": AuditSession(config),
        "sharded": ShardedCam(config, shards=2, engine="batch"),
        "replicated": ReplicaSet(
            [BatchSession(config), BatchSession(config)]
        ),
        "sharded_replicated": ShardedCam(
            config, shards=2, engine="batch", replicas=2
        ),
    }


BACKENDS = _backends()


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    instance = BACKENDS[request.param]
    instance.reset()
    return instance


# ----------------------------------------------------------------------
# protocol membership
# ----------------------------------------------------------------------
def test_every_backend_conforms(backend):
    assert isinstance(backend, CamStore)
    assert isinstance(backend, CamBackend)


def test_reference_cam_is_a_store_but_not_a_backend():
    reference = ReferenceCam(64)
    assert isinstance(reference, CamStore)
    assert not isinstance(reference, CamBackend)


def test_open_session_products_conform():
    for kwargs in ({}, {"shards": 2}, {"replicas": 2},
                   {"shards": 2, "replicas": 2}):
        session = repro.open_session(_config(), "batch", **kwargs)
        assert isinstance(session, CamBackend), kwargs


def test_arbitrary_objects_do_not_conform():
    assert not isinstance(object(), CamStore)
    assert not isinstance({"capacity": 64}, CamStore)


def test_issubclass_is_rejected_for_data_protocols():
    with pytest.raises(TypeError):
        issubclass(BatchSession, CamStore)


# ----------------------------------------------------------------------
# behavioural smoke of the shared surface
# ----------------------------------------------------------------------
def test_shared_surface_behaves(backend):
    assert backend.occupancy == 0
    assert backend.capacity >= 64
    backend.update([0x11, 0x22, 0x33])
    with pytest.raises(ConfigError):  # a word past int64 lands nothing
        backend.update([0x44, 1 << 70])
    for call in (backend.delete, backend.search_one):  # nor a key
        with pytest.raises(ConfigError):
            call(1 << 63)
    assert backend.occupancy == 3
    assert backend.contains(0x22)
    assert not backend.contains(0x44)
    result = backend.search_one(0x33)
    assert isinstance(result, SearchResult) and result.hit
    backend.delete(0x11)
    assert not backend.contains(0x11)
    backend.idle(2)
    assert backend.cycle > 0
    assert backend.num_groups >= 1
    assert backend.search_latency >= 1
    assert backend.update_latency >= 1
    assert backend.words_per_beat >= 1
    assert isinstance(backend.engine_name, str) and backend.engine_name
    assert backend.resources() is not None

    snap = backend.snapshot()
    backend.restore(snap)
    assert backend.contains(0x22) and not backend.contains(0x11)

    backend.reset()
    assert backend.occupancy == 0



@pytest.mark.parametrize("cam_type,entry", [
    (CamType.BINARY, lambda value: binary_entry(value, 12)),
    (CamType.TERNARY, lambda value: ternary_entry(value, 0x3, 12)),
    (CamType.RANGE, lambda value: range_entry(value, value + 3, 12)),
], ids=["binary", "ternary", "range"])
def test_stored_entries_identical_across_engines(cam_type, entry):
    """The same content has one golden view on every engine: same
    entries, same width, same deleted hole."""
    config = unit_for_entries(64, block_size=16, data_width=12,
                              bus_width=128, cam_type=cam_type)
    entries = [entry(value) for value in (0x110, 0x220, 0x330)]
    for engine in ENGINES:
        session = repro.open_session(config, engine)
        session.update(entries)
        session.delete(0x110)
        assert session.stored_entries(0) == [None] + entries[1:], engine
