"""Wire protocol: framing, CRC, codecs, error mapping.

Property tests (hypothesis) cover round-trips and arbitrary stream
chunking; the rest are adversarial decode paths -- the bytes a hostile
or broken peer could send.
"""

import os
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

#: The CI "deep" job sets HYPOTHESIS_PROFILE=deep for a longer soak.
_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

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


#: Error texts a RESULT row may carry: none, empty, or any Unicode.
error_texts = st.one_of(st.none(), st.just(""), st.text(max_size=24))


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(["ok", "timeout", "shard_failed", "error"]),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            st.integers(min_value=0, max_value=(1 << 130) - 1),
            error_texts,
        ),
        max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_results_round_trip_bit_identical(entries):
    results = [
        (status, SearchResult.from_vector(key, vector, Encoding.BINARY),
         error)
        for status, key, vector, error in entries
    ]
    decoded = protocol.decode_results(protocol.encode_results(results))
    assert len(decoded) == len(results)
    for (status, want, error), (got_status, got, got_error) \
            in zip(results, decoded):
        assert got_status == status
        assert (got.hit, got.address, got.match_vector, got.key) \
            == (want.hit, want.address, want.match_vector, want.key)
        # An ok row sends no message; an empty one decodes as None.
        assert got_error == (error or None if status != "ok" else None)


def test_an_all_ok_frame_carries_no_message_bytes():
    rows = [(status, SearchResult.from_vector(7, 0b101, Encoding.BINARY))
            for status in ("ok", "error")]
    ok = protocol.encode_results([rows[0] + ("ignored",)] * 3)
    assert ok == protocol.encode_results([rows[0] + (None,)] * 3)
    assert len(protocol.encode_results([rows[1] + ("ünï",)] * 3)) \
        == len(ok) + 3 * (4 + len("ünï".encode("utf-8")))


addresses = st.one_of(st.integers(min_value=0, max_value=4095),
                      st.integers(min_value=4096, max_value=1 << 16))


@st.composite
def result_lists(draw):
    """Results of one CAM: one encoding, each key with 0, 1 or many
    matches, any status."""
    encoding = draw(st.sampled_from(list(Encoding)))
    entries = draw(st.lists(st.tuples(
        st.sampled_from(["ok", "timeout", "shard_failed", "error"]),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.one_of(st.just([]), st.lists(addresses, min_size=1, max_size=1),
                  st.lists(addresses, min_size=2, max_size=12)),
        error_texts,
    ), max_size=10))
    return [
        (status, SearchResult.from_vector(
            key, sum(1 << a for a in set(hits)), encoding),
         error or None if status != "ok" else None)
        for status, key, hits, error in entries
    ]


@given(results=result_lists(), size=st.sampled_from([2, 64, 4096, 70000]))
@settings(max_examples=1500 if _DEEP else 150, deadline=None)
def test_columnar_results_round_trip_every_encoding(results, size):
    decoded = protocol.decode_results(protocol.encode_results(results))
    assert [status for status, _, _ in decoded] \
        == [status for status, _, _ in results]
    for (_, want, _), (_, got, _) in zip(results, decoded):
        assert (got.key, got.hit, got.address, got.match_vector,
                got.match_count, got.encoding) \
            == (want.key, want.hit, want.address, want.match_vector,
                want.match_count, want.encoding)
        assert got.encoded(size) == want.encoded(size)
    assert decoded == results


def test_results_of_two_encodings_are_not_one_frame():
    with pytest.raises(ConfigError, match="encoding"):
        protocol.encode_results([
            ("ok", SearchResult.from_vector(1, 2, Encoding.PRIORITY), None),
            ("ok", SearchResult.from_vector(1, 2, Encoding.COUNT), None),
        ])


def _sample_results():
    return protocol.encode_results([
        ("ok", SearchResult.from_vector(7, 0b1011, Encoding.BINARY), None),
        ("timeout", SearchResult.from_vector(8, 0, Encoding.BINARY), None),
        ("error", SearchResult.from_vector(9, 1 << 5000, Encoding.BINARY),
         "key 9: ünïcode"),
        ("ok", SearchResult.from_vector(10, 0b110, Encoding.BINARY), None),
        ("shard_failed", SearchResult.from_vector(11, 0, Encoding.BINARY),
         "shard 1 failed"),
    ])


def _results_payload(statuses, keys, counts, firsts, extras, encoding=0,
                     messages=b""):
    """A RESULT payload assembled column by column, valid or not."""
    return (struct.pack("<IB", len(keys), encoding) + bytes(statuses)
            + struct.pack(f"<{len(keys)}Q", *keys)
            + struct.pack(f"<{len(keys)}I", *counts)
            + struct.pack(f"<{len(keys)}q", *firsts)
            + struct.pack(f"<{len(extras)}I", *extras) + messages)


def test_every_truncated_prefix_and_trailing_bytes_are_rejected():
    blob = _sample_results()
    assert [error for _, _, error in protocol.decode_results(blob)] \
        == [None, None, "key 9: ünïcode", None, "shard 1 failed"]
    for end in range(len(blob)):
        with pytest.raises(ProtocolError):
            protocol.decode_results(blob[:end])
    with pytest.raises(ProtocolError, match="expected"):
        protocol.decode_results(blob + b"\0")
    with pytest.raises(ProtocolError, match="expected"):
        protocol.decode_results(blob + b"\0" * 4)


@pytest.mark.parametrize("payload, match", [
    # u32 max keys declared, none present: no allocation, no NumPy error
    (struct.pack("<IB", 0xFFFFFFFF, 0), "truncated"),
    (struct.pack("<IB", 0xFFFFFFFF, 0) + b"\0" * 64, "truncated"),
    # u32 max matches on one key: the extra addresses are missing
    (_results_payload([0], [1], [0xFFFFFFFF], [3], []), "expected"),
    (_results_payload([4], [1], [0], [-1], []), "status"),
    (_results_payload([0], [1], [0], [-1], [], encoding=len(Encoding)),
     "encoding"),
    (_results_payload([0], [1], [0], [3], []), "miss"),
    (_results_payload([0], [1], [1], [-1], []), "range"),
    (_results_payload([0], [1], [1], [-7], []), "range"),
    (_results_payload([0], [1], [3], [4], [9, 9]), "ascending"),
    (_results_payload([0], [1], [2], [4], [4]), "ascending"),
    (_results_payload([0], [1], [2], [4], [2]), "ascending"),
    # addresses that would make the decoder build gigantic ints
    (_results_payload([0], [1], [1], [(1 << 63) - 1], []), "range"),
    (_results_payload([0], [1], [2], [1], [0xFFFFFFFF]), "range"),
    (_results_payload([0] * 64, list(range(64)), [1] * 64,
                      [1 << 20] * 64, []), "range"),
    # the error messages of rows that are not ok
    (_results_payload([3], [1], [0], [-1], []), "truncated"),
    (_results_payload([3], [1], [0], [-1], [], messages=b"\0\0"),
     "truncated"),
    (_results_payload([3], [1], [0], [-1], [],
                      messages=struct.pack("<I", 0xFFFFFFFF) + b"x"),
     "expected"),
    (_results_payload([3, 3], [1, 2], [0, 0], [-1, -1], [],
                      messages=struct.pack("<I", 0xFFFFFFFF) + b"x"),
     "truncated"),
    (_results_payload([3], [1], [0], [-1], [],
                      messages=struct.pack("<I", 2) + b"\xff\xfe"),
     "malformed"),
    (_results_payload([0], [1], [0], [-1], [],
                      messages=struct.pack("<I", 0)), "expected"),
])
def test_hostile_results_raise_protocol_errors(payload, match):
    with pytest.raises(ProtocolError, match=match):
        protocol.decode_results(payload)


def _result_frame_of_version(version):
    head = struct.Struct("<4sBBII").pack(PROTOCOL_MAGIC, version,
                                         int(Opcode.RESULT), 1, 0)
    return head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)


def test_version_1_frame_is_rejected():
    assert PROTOCOL_VERSION == 3
    with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
        FrameDecoder().feed(_result_frame_of_version(1))


def test_version_2_frame_is_rejected():
    """Version 2 RESULT frames had no error messages; a version-3 peer
    turns them away rather than misread them."""
    with pytest.raises(ProtocolError, match="unsupported protocol version 2"):
        FrameDecoder().feed(_result_frame_of_version(2))


def test_update_ack_carries_the_error_message():
    payload = protocol.encode_update_ack("error", None,
                                         "word 2^63 is too wide: ünïcode")
    status, stats, error = protocol.decode_update_ack(payload)
    assert (status, stats.words, error) \
        == ("error", 0, "word 2^63 is too wide: ünïcode")
    head = len(protocol.encode_update_ack("ok", None))
    for bad in (payload[:-1], payload + b"x",
                payload[:head] + b"\xff" * (len(payload) - head)):
        with pytest.raises(ProtocolError):
            protocol.decode_update_ack(bad)


def test_update_ack_round_trip():
    stats = UpdateStats(words=7, beats=3, cycles=12345)
    status, got, error = protocol.decode_update_ack(
        protocol.encode_update_ack("ok", stats)
    )
    assert status == "ok" and error is None
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
