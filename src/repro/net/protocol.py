"""Binary wire protocol for the CAM service.

Every message is one **frame**::

    offset  size  field
    0       4     magic  b"RCAM"
    4       1     protocol version (1)
    5       1     opcode
    6       4     request id (LE u32, chosen by the sender of a request,
                  echoed by the matching response)
    10      4     payload length N (LE u32)
    14      N     payload (opcode-specific, see below)
    14+N    4     CRC32 (LE u32) over bytes [0, 14+N)

The trailing CRC covers header *and* payload, so a flipped bit anywhere
is caught before the payload is interpreted. Integers are little-endian
throughout (the same convention as the binary snapshot codec).

Request opcodes and payloads:

=========  ====================================================
LOOKUP     ``u32 count`` then ``count`` x ``u64 key`` -- one
           frame carries a whole probe batch
INSERT     16-byte idempotency token, ``u32 count``, then
           ``count`` x ``u64 word``
DELETE     16-byte idempotency token, ``u32 count``, then
           ``count`` x ``u64 key``
SNAPSHOT   empty -- asks for the server CAM's binary snapshot
STATS      empty -- asks for a JSON stats document
PING       arbitrary payload, echoed back verbatim
=========  ====================================================

Response opcodes: ``RESULT`` (lookup/delete answers: per key a status
byte, the key, an encoding byte and the raw match vector -- the client
rebuilds :class:`~repro.core.types.SearchResult` bit-identically via
``from_vector``), ``UPDATED`` (insert ack with
:class:`~repro.core.session.UpdateStats`), ``SNAPSHOT_DATA`` (the
binary snapshot blob), ``STATS_DATA`` (UTF-8 JSON), ``PONG`` (echo)
and ``ERROR`` (``u16`` :class:`ErrorCode` + UTF-8 message).

Mutating requests (INSERT/DELETE) carry a 16-byte **idempotency
token**: the server remembers recent token -> response mappings and
answers a retried token from that cache without re-applying the
mutation, which is what makes client retry-after-connection-loss
exactly-once (zero lost, zero duplicated updates).

:class:`FrameDecoder` is the incremental stream decoder used by both
ends; it enforces magic, version, a frame-size cap and the CRC, and
raises typed :mod:`repro.errors` exceptions on violation.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.session import UpdateStats
from repro.core.types import Encoding, SearchResult
from repro.errors import (
    CapacityError,
    ConfigError,
    ConnectionLostError,
    FrameTooLargeError,
    MaskError,
    NetError,
    ProtocolError,
    RequestTimeoutError,
    RoutingError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadError,
    ShardFailedError,
    SnapshotError,
)

#: First four bytes of every frame.
PROTOCOL_MAGIC = b"RCAM"

#: Wire format version; bumped on any layout change.
PROTOCOL_VERSION = 1

#: Default cap on one frame's payload (4 MiB) -- a snapshot of a very
#: large CAM is the only payload that approaches it.
MAX_FRAME_SIZE = 4 * 1024 * 1024

#: Size of the idempotency token carried by mutating requests.
TOKEN_SIZE = 16

_HEADER = struct.Struct("<4sBBII")
_CRC = struct.Struct("<I")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_UPDATE = struct.Struct("<BIIQ")

#: Bytes of framing around the payload (header + trailing CRC).
FRAME_OVERHEAD = _HEADER.size + _CRC.size


class Opcode(IntEnum):
    """Frame opcodes; requests below 0x80, responses above."""

    LOOKUP = 0x01
    INSERT = 0x02
    DELETE = 0x03
    SNAPSHOT = 0x04
    STATS = 0x05
    PING = 0x06

    RESULT = 0x81
    UPDATED = 0x82
    SNAPSHOT_DATA = 0x84
    STATS_DATA = 0x85
    PONG = 0x86
    ERROR = 0xFF

    @property
    def is_request(self) -> bool:
        return self < 0x80


class Status(IntEnum):
    """Per-request outcome carried inside RESULT/UPDATED payloads.

    Mirrors :class:`~repro.service.scheduler.ServiceResponse.status`
    so a network response reconstructs the in-process response
    exactly.
    """

    OK = 0
    TIMEOUT = 1
    SHARD_FAILED = 2
    ERROR = 3


_STATUS_STRINGS = {
    Status.OK: "ok",
    Status.TIMEOUT: "timeout",
    Status.SHARD_FAILED: "shard_failed",
    Status.ERROR: "error",
}
_STATUS_CODES = {text: code for code, text in _STATUS_STRINGS.items()}


def status_to_wire(status: str) -> int:
    return int(_STATUS_CODES.get(status, Status.ERROR))


def status_from_wire(code: int) -> str:
    try:
        return _STATUS_STRINGS[Status(code)]
    except ValueError:
        raise ProtocolError(f"unknown status code {code}") from None


class ErrorCode(IntEnum):
    """Structured error frame codes, mapped onto :mod:`repro.errors`."""

    BAD_FRAME = 1
    UNSUPPORTED_VERSION = 2
    UNKNOWN_OPCODE = 3
    FRAME_TOO_LARGE = 4
    RETRY_LATER = 5
    OVERLOADED = 6
    TIMEOUT = 7
    SHARD_FAILED = 8
    CLIENT_ERROR = 9
    SNAPSHOT_FAILED = 10
    INTERNAL = 11


#: ErrorCode -> exception class raised client-side when a request
#: resolves to an error frame.
ERROR_CODES: Dict[int, type] = {
    ErrorCode.BAD_FRAME: ProtocolError,
    ErrorCode.UNSUPPORTED_VERSION: ProtocolError,
    ErrorCode.UNKNOWN_OPCODE: ProtocolError,
    ErrorCode.FRAME_TOO_LARGE: FrameTooLargeError,
    ErrorCode.RETRY_LATER: ServiceDrainingError,
    ErrorCode.OVERLOADED: ServiceOverloadError,
    ErrorCode.TIMEOUT: RequestTimeoutError,
    ErrorCode.SHARD_FAILED: ShardFailedError,
    ErrorCode.CLIENT_ERROR: ConfigError,
    ErrorCode.SNAPSHOT_FAILED: SnapshotError,
    ErrorCode.INTERNAL: ServiceError,
}


def error_code_for(exc: BaseException) -> ErrorCode:
    """The wire code a server-side exception maps to."""
    if isinstance(exc, ServiceDrainingError):
        return ErrorCode.RETRY_LATER
    if isinstance(exc, ServiceOverloadError):
        return ErrorCode.OVERLOADED
    if isinstance(exc, RequestTimeoutError):
        return ErrorCode.TIMEOUT
    if isinstance(exc, ShardFailedError):
        return ErrorCode.SHARD_FAILED
    if isinstance(exc, (ConfigError, CapacityError, RoutingError,
                        MaskError)):
        return ErrorCode.CLIENT_ERROR
    if isinstance(exc, SnapshotError):
        return ErrorCode.SNAPSHOT_FAILED
    if isinstance(exc, FrameTooLargeError):
        return ErrorCode.FRAME_TOO_LARGE
    if isinstance(exc, ProtocolError):
        return ErrorCode.BAD_FRAME
    return ErrorCode.INTERNAL


def exception_for(code: int, message: str) -> NetError:
    """Rebuild the client-side exception for an error frame."""
    cls = ERROR_CODES.get(code, ServiceError)
    if cls is ShardFailedError:
        return ShardFailedError(-1, message)
    return cls(message)


@dataclass(frozen=True)
class Frame:
    """One decoded frame: opcode, request id, raw payload."""

    opcode: Opcode
    request_id: int
    payload: bytes = b""


# ----------------------------------------------------------------------
# frame encode / decode
# ----------------------------------------------------------------------
def encode_frame(opcode: int, request_id: int, payload: bytes = b"") -> bytes:
    """Serialise one frame, CRC included."""
    head = _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, int(opcode),
                        request_id & 0xFFFFFFFF, len(payload))
    body = head + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_frame(blob: bytes) -> Frame:
    """Decode exactly one complete frame (tests and tools; the stream
    path uses :class:`FrameDecoder`)."""
    decoder = FrameDecoder()
    frames = decoder.feed(blob)
    if not frames:
        raise ProtocolError(
            f"incomplete frame ({len(blob)} bytes)"
        )
    if len(frames) != 1 or decoder.buffered:
        raise ProtocolError("expected exactly one frame")
    return frames[0]


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    ``feed(data)`` returns every frame completed by ``data``. Magic and
    version are checked as soon as the header is buffered; the payload
    length is checked against ``max_frame_size`` *before* the payload
    is awaited, so an absurd length cannot make the peer buffer
    gigabytes; the CRC is checked once the full frame is in.
    """

    def __init__(self, max_frame_size: int = MAX_FRAME_SIZE) -> None:
        if max_frame_size < 1:
            raise ConfigError(
                f"max_frame_size must be >= 1, got {max_frame_size}"
            )
        self.max_frame_size = max_frame_size
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes waiting for the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Every frame ``data`` completes, parsed in one pass: one
        offset walks the buffer, the CRC reads a view of it, and the
        consumed prefix is trimmed once at the end."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Frame] = []
        size = len(buffer)
        offset = 0
        view = memoryview(buffer)
        try:
            while size - offset >= _HEADER.size:
                magic, version, opcode, request_id, length = (
                    _HEADER.unpack_from(buffer, offset)
                )
                if magic != PROTOCOL_MAGIC:
                    raise ProtocolError(
                        f"bad magic {bytes(magic)!r} "
                        f"(expected {PROTOCOL_MAGIC!r})"
                    )
                if version != PROTOCOL_VERSION:
                    raise ProtocolError(
                        f"unsupported protocol version {version} "
                        f"(this build speaks version {PROTOCOL_VERSION})"
                    )
                if length > self.max_frame_size:
                    raise FrameTooLargeError(
                        f"frame payload of {length} bytes exceeds the "
                        f"{self.max_frame_size}-byte limit"
                    )
                body_end = offset + _HEADER.size + length
                if size < body_end + _CRC.size:
                    break
                (crc,) = _CRC.unpack_from(buffer, body_end)
                actual = zlib.crc32(view[offset:body_end]) & 0xFFFFFFFF
                if crc != actual:
                    raise ProtocolError(
                        f"CRC mismatch (frame says {crc:#010x}, "
                        f"computed {actual:#010x})"
                    )
                try:
                    op = Opcode(opcode)
                except ValueError:
                    raise ProtocolError(
                        f"unknown opcode {opcode:#04x}"
                    ) from None
                frames.append(Frame(
                    opcode=op, request_id=request_id,
                    payload=bytes(view[offset + _HEADER.size:body_end]),
                ))
                offset = body_end + _CRC.size
        finally:
            # The view must go before the bytearray can shrink.
            view.release()
            del buffer[:offset]
        return frames


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
def _pack_keys(keys: Sequence[int]) -> bytes:
    out = [_U32.pack(len(keys))]
    for key in keys:
        out.append(_U64.pack(int(key) & 0xFFFFFFFFFFFFFFFF))
    return b"".join(out)


def _unpack_keys(payload: bytes, offset: int) -> Tuple[List[int], int]:
    if len(payload) < offset + _U32.size:
        raise ProtocolError("truncated key batch (missing count)")
    (count,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    need = count * _U64.size
    if len(payload) < offset + need:
        raise ProtocolError(
            f"truncated key batch ({count} keys declared, "
            f"{len(payload) - offset} bytes left)"
        )
    keys = [
        _U64.unpack_from(payload, offset + i * _U64.size)[0]
        for i in range(count)
    ]
    return keys, offset + need


def encode_lookup(keys: Sequence[int]) -> bytes:
    if not keys:
        raise ConfigError("a LOOKUP frame needs at least one key")
    return _pack_keys(keys)


def decode_lookup(payload: bytes) -> List[int]:
    keys, end = _unpack_keys(payload, 0)
    if end != len(payload):
        raise ProtocolError("trailing bytes after LOOKUP keys")
    if not keys:
        raise ProtocolError("empty LOOKUP batch")
    return keys


def encode_mutation(token: bytes, words: Sequence[int]) -> bytes:
    """Shared INSERT/DELETE request payload: token + key batch."""
    if len(token) != TOKEN_SIZE:
        raise ConfigError(
            f"idempotency token must be {TOKEN_SIZE} bytes, "
            f"got {len(token)}"
        )
    if not words:
        raise ConfigError("a mutation frame needs at least one word")
    return token + _pack_keys(words)


def decode_mutation(payload: bytes) -> Tuple[bytes, List[int]]:
    if len(payload) < TOKEN_SIZE:
        raise ProtocolError("mutation frame shorter than its token")
    token = payload[:TOKEN_SIZE]
    words, end = _unpack_keys(payload, TOKEN_SIZE)
    if end != len(payload):
        raise ProtocolError("trailing bytes after mutation words")
    if not words:
        raise ProtocolError("empty mutation batch")
    return token, words


_ENCODING_WIRE = {encoding: index
                  for index, encoding in enumerate(Encoding)}
_ENCODING_UNWIRE = {index: encoding
                    for index, encoding in enumerate(Encoding)}


def _vector_bytes(vector: int) -> bytes:
    length = max(1, (vector.bit_length() + 7) // 8)
    return vector.to_bytes(length, "little")


def encode_results(
    results: Sequence[Tuple[str, SearchResult]],
) -> bytes:
    """RESULT payload: ``u32 count`` then per entry ``u8 status``,
    ``u64 key``, ``u8 encoding``, ``u32 vector_len``, vector bytes
    (little-endian raw match vector -- the full per-cell hit bitmap,
    so the client-side result is bit-identical to the in-process
    one)."""
    out = [_U32.pack(len(results))]
    for status, result in results:
        vector = _vector_bytes(result.match_vector)
        out.append(struct.pack(
            "<BQBI", status_to_wire(status),
            int(result.key) & 0xFFFFFFFFFFFFFFFF,
            _ENCODING_WIRE[result.encoding], len(vector),
        ))
        out.append(vector)
    return b"".join(out)


def decode_results(payload: bytes) -> List[Tuple[str, SearchResult]]:
    if len(payload) < _U32.size:
        raise ProtocolError("truncated RESULT payload")
    (count,) = _U32.unpack_from(payload, 0)
    offset = _U32.size
    entry = struct.Struct("<BQBI")
    results: List[Tuple[str, SearchResult]] = []
    for _ in range(count):
        if len(payload) < offset + entry.size:
            raise ProtocolError("truncated RESULT entry")
        status_code, key, encoding_code, vector_len = entry.unpack_from(
            payload, offset
        )
        offset += entry.size
        if len(payload) < offset + vector_len:
            raise ProtocolError("truncated RESULT match vector")
        vector = int.from_bytes(payload[offset:offset + vector_len],
                                "little")
        offset += vector_len
        try:
            encoding = _ENCODING_UNWIRE[encoding_code]
        except KeyError:
            raise ProtocolError(
                f"unknown result encoding {encoding_code}"
            ) from None
        results.append((
            status_from_wire(status_code),
            SearchResult.from_vector(key, vector, encoding),
        ))
    if offset != len(payload):
        raise ProtocolError("trailing bytes after RESULT entries")
    return results


def encode_update_ack(status: str, stats: Optional[UpdateStats]) -> bytes:
    """UPDATED payload: ``u8 status, u32 words, u32 beats, u64 cycles``."""
    stats = stats or UpdateStats(words=0, beats=0, cycles=0)
    return _UPDATE.pack(status_to_wire(status), stats.words, stats.beats,
                        stats.cycles)


def decode_update_ack(payload: bytes) -> Tuple[str, UpdateStats]:
    if len(payload) != _UPDATE.size:
        raise ProtocolError(
            f"UPDATED payload must be {_UPDATE.size} bytes, "
            f"got {len(payload)}"
        )
    status_code, words, beats, cycles = _UPDATE.unpack(payload)
    return status_from_wire(status_code), UpdateStats(
        words=words, beats=beats, cycles=cycles
    )


def encode_error(code: int, message: str) -> bytes:
    return struct.pack("<H", int(code)) + message.encode("utf-8")


def decode_error(payload: bytes) -> Tuple[int, str]:
    if len(payload) < 2:
        raise ProtocolError("truncated ERROR payload")
    (code,) = struct.unpack_from("<H", payload, 0)
    return code, payload[2:].decode("utf-8", errors="replace")


def encode_stats(stats: dict) -> bytes:
    return json.dumps(stats, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_stats(payload: bytes) -> dict:
    try:
        data = json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed STATS payload: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("STATS payload must be a JSON object")
    return data


__all__ = [
    "ERROR_CODES",
    "FRAME_OVERHEAD",
    "MAX_FRAME_SIZE",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "TOKEN_SIZE",
    "ConnectionLostError",
    "ErrorCode",
    "Frame",
    "FrameDecoder",
    "Opcode",
    "Status",
    "decode_error",
    "decode_frame",
    "decode_lookup",
    "decode_mutation",
    "decode_results",
    "decode_stats",
    "decode_update_ack",
    "encode_error",
    "encode_frame",
    "encode_lookup",
    "encode_mutation",
    "encode_results",
    "encode_stats",
    "encode_update_ack",
    "error_code_for",
    "exception_for",
    "status_from_wire",
    "status_to_wire",
]
