"""Wire protocol: framing, CRC, codecs, error mapping.

Property tests (hypothesis) cover round-trips and arbitrary stream
chunking; the rest are adversarial decode paths -- the bytes a hostile
or broken peer could send.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import UpdateStats
from repro.core.types import Encoding, SearchResult
from repro.errors import (
    ConfigError,
    FrameTooLargeError,
    ProtocolError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadError,
    ShardFailedError,
)
from repro.net import protocol
from repro.net.protocol import (
    FRAME_OVERHEAD,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    TOKEN_SIZE,
    ErrorCode,
    FrameDecoder,
    Opcode,
    decode_frame,
    encode_frame,
)

key_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    min_size=1, max_size=20,
)


# ----------------------------------------------------------------------
# frame round-trips
# ----------------------------------------------------------------------
@given(
    opcode=st.sampled_from(list(Opcode)),
    request_id=st.integers(min_value=0, max_value=(1 << 32) - 1),
    payload=st.binary(max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_frame_round_trip(opcode, request_id, payload):
    frame = decode_frame(encode_frame(opcode, request_id, payload))
    assert frame.opcode is opcode
    assert frame.request_id == request_id
    assert frame.payload == payload


@given(
    frames=st.lists(
        st.tuples(st.sampled_from([Opcode.LOOKUP, Opcode.PING,
                                   Opcode.RESULT]),
                  st.binary(max_size=40)),
        min_size=1, max_size=6,
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_decoder_survives_arbitrary_chunking(frames, data):
    """However the byte stream is fragmented, the same frames emerge
    in order."""
    stream = b"".join(encode_frame(op, i, payload)
                      for i, (op, payload) in enumerate(frames))
    decoder = FrameDecoder()
    out = []
    position = 0
    while position < len(stream):
        step = data.draw(st.integers(min_value=1,
                                     max_value=len(stream) - position))
        out.extend(decoder.feed(stream[position:position + step]))
        position += step
    assert [(f.opcode, f.request_id, f.payload) for f in out] \
        == [(op, i, payload) for i, (op, payload) in enumerate(frames)]
    assert decoder.buffered == 0


def test_incomplete_frame_stays_buffered():
    blob = encode_frame(Opcode.PING, 7, b"x" * 32)
    decoder = FrameDecoder()
    assert decoder.feed(blob[:-1]) == []
    assert decoder.buffered == len(blob) - 1
    frames = decoder.feed(blob[-1:])
    assert len(frames) == 1 and frames[0].payload == b"x" * 32


# ----------------------------------------------------------------------
# adversarial frames
# ----------------------------------------------------------------------
def test_bad_magic_rejected():
    blob = b"XCAM" + encode_frame(Opcode.PING, 1)[4:]
    with pytest.raises(ProtocolError, match="magic"):
        FrameDecoder().feed(blob)


def test_future_version_rejected():
    blob = bytearray(encode_frame(Opcode.PING, 1))
    blob[4] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError, match="version"):
        FrameDecoder().feed(bytes(blob))


def test_crc_corruption_rejected():
    blob = bytearray(encode_frame(Opcode.PING, 1, b"payload"))
    blob[-6] ^= 0x40  # flip one payload bit; CRC no longer matches
    with pytest.raises(ProtocolError, match="CRC"):
        FrameDecoder().feed(bytes(blob))


@pytest.mark.parametrize("good", [0, 1, 5])
def test_crc_corruption_after_good_frames_in_one_feed_rejected(good):
    """The one-pass decoder checks every frame of a feed, not only the
    first: a corrupt frame behind ``good`` valid ones still raises."""
    stream = b"".join(encode_frame(Opcode.PING, i, b"ok") for i in range(good))
    bad = bytearray(encode_frame(Opcode.PING, good, b"payload"))
    bad[-6] ^= 0x40
    with pytest.raises(ProtocolError, match="CRC"):
        FrameDecoder().feed(stream + bytes(bad))


def test_unknown_opcode_rejected():
    head = struct.Struct("<4sBBII").pack(PROTOCOL_MAGIC, PROTOCOL_VERSION,
                                         0x70, 1, 0)
    blob = head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)
    with pytest.raises(ProtocolError, match="opcode"):
        FrameDecoder().feed(blob)


def test_oversize_frame_rejected_before_payload_arrives():
    """The declared length alone must trip the cap -- a peer cannot
    make us buffer a huge payload first."""
    decoder = FrameDecoder(max_frame_size=64)
    head = struct.Struct("<4sBBII").pack(PROTOCOL_MAGIC, PROTOCOL_VERSION,
                                         int(Opcode.PING), 1, 1 << 20)
    with pytest.raises(FrameTooLargeError):
        decoder.feed(head)


def test_decode_frame_rejects_trailing_bytes():
    blob = encode_frame(Opcode.PING, 1) + encode_frame(Opcode.PING, 2)
    with pytest.raises(ProtocolError):
        decode_frame(blob)
    with pytest.raises(ProtocolError, match="incomplete"):
        decode_frame(encode_frame(Opcode.PING, 1)[:-2])


def test_frame_overhead_constant_matches_layout():
    assert len(encode_frame(Opcode.PING, 0, b"")) == FRAME_OVERHEAD


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
@given(keys=key_lists)
@settings(max_examples=40, deadline=None)
def test_lookup_batch_round_trip(keys):
    assert protocol.decode_lookup(protocol.encode_lookup(keys)) == keys


@given(keys=key_lists, token=st.binary(min_size=TOKEN_SIZE,
                                       max_size=TOKEN_SIZE))
@settings(max_examples=40, deadline=None)
def test_mutation_round_trip(keys, token):
    got_token, got_keys = protocol.decode_mutation(
        protocol.encode_mutation(token, keys)
    )
    assert got_token == token and got_keys == keys


def test_empty_batches_rejected():
    with pytest.raises(ConfigError):
        protocol.encode_lookup([])
    with pytest.raises(ConfigError):
        protocol.encode_mutation(b"\0" * TOKEN_SIZE, [])
    with pytest.raises(ConfigError):
        protocol.encode_mutation(b"short", [1])


@pytest.mark.parametrize("mutate", [
    lambda b: b[:3],                      # shorter than the count
    lambda b: b[:-4],                     # declared keys missing
    lambda b: b + b"\0",                  # trailing garbage
])
def test_truncated_key_batches_rejected(mutate):
    blob = mutate(bytearray(protocol.encode_lookup([1, 2, 3])))
    with pytest.raises(ProtocolError):
        protocol.decode_lookup(bytes(blob))


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(["ok", "timeout", "shard_failed", "error"]),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            st.integers(min_value=0, max_value=(1 << 130) - 1),
        ),
        max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_results_round_trip_bit_identical(entries):
    results = [
        (status, SearchResult.from_vector(key, vector, Encoding.BINARY))
        for status, key, vector in entries
    ]
    decoded = protocol.decode_results(protocol.encode_results(results))
    assert len(decoded) == len(results)
    for (status, want), (got_status, got) in zip(results, decoded):
        assert got_status == status
        assert (got.hit, got.address, got.match_vector, got.key) \
            == (want.hit, want.address, want.match_vector, want.key)


def test_update_ack_round_trip():
    stats = UpdateStats(words=7, beats=3, cycles=12345)
    status, got = protocol.decode_update_ack(
        protocol.encode_update_ack("ok", stats)
    )
    assert status == "ok"
    assert (got.words, got.beats, got.cycles) == (7, 3, 12345)
    with pytest.raises(ProtocolError):
        protocol.decode_update_ack(b"\0\0")


def test_stats_round_trip_and_rejects_non_objects():
    doc = {"server": {"requests": 3}, "cam": {"capacity": 64}}
    assert protocol.decode_stats(protocol.encode_stats(doc)) == doc
    with pytest.raises(ProtocolError):
        protocol.decode_stats(b"[1, 2]")
    with pytest.raises(ProtocolError):
        protocol.decode_stats(b"\xff\xfenot json")


# ----------------------------------------------------------------------
# error frame mapping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exc, code", [
    (ServiceDrainingError("drain"), ErrorCode.RETRY_LATER),
    (ServiceOverloadError("full"), ErrorCode.OVERLOADED),
    (ShardFailedError(2, "dead"), ErrorCode.SHARD_FAILED),
    (ProtocolError("junk"), ErrorCode.BAD_FRAME),
    (FrameTooLargeError("big"), ErrorCode.FRAME_TOO_LARGE),
    (RuntimeError("surprise"), ErrorCode.INTERNAL),
])
def test_error_code_mapping(exc, code):
    assert protocol.error_code_for(exc) is code


def test_error_frame_round_trip_rebuilds_typed_exception():
    payload = protocol.encode_error(ErrorCode.RETRY_LATER, "draining")
    code, message = protocol.decode_error(payload)
    exc = protocol.exception_for(code, message)
    assert isinstance(exc, ServiceDrainingError)
    assert "draining" in str(exc)
    # Unknown codes (a future server) degrade to the generic error.
    assert isinstance(protocol.exception_for(9999, "?"), ServiceError)
    with pytest.raises(ProtocolError):
        protocol.decode_error(b"\x01")
