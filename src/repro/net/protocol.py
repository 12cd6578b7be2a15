"""Binary wire protocol for the CAM service.

Every message is one **frame**::

    offset  size  field
    0       4     magic  b"RCAM"
    4       1     protocol version (3)
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

Response opcodes: ``RESULT`` (lookup and delete answers as columns:
``u32 n``, ``u8 encoding``, ``status u8[n]``, ``key u64[n]``,
``count u32[n]``, ``first i64[n]``, then the ``u32`` extra addresses of
keys that matched more than once -- the client rebuilds each
:class:`~repro.core.types.SearchResult` bit-identically from them --
then a ``u32``-length-prefixed UTF-8 error message for each row whose
status is not ``ok``),
``UPDATED`` (insert ack: status, :class:`~repro.core.session.UpdateStats`
and the error message), ``SNAPSHOT_DATA`` (the binary snapshot blob),
``STATS_DATA`` (UTF-8 JSON), ``PONG`` (echo) and ``ERROR`` (``u16``
:class:`ErrorCode` + UTF-8 message).

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

import numpy as np

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

#: Wire format version; bumped on any layout change (2: columnar
#: RESULT, UPDATED with an error message; 3: RESULT rows that are not
#: ``ok`` carry their error message).
PROTOCOL_VERSION = 3

#: Default cap on one frame's payload (4 MiB) -- a snapshot of a very
#: large CAM is the only payload that approaches it.
MAX_FRAME_SIZE = 4 * 1024 * 1024

#: Size of the idempotency token carried by mutating requests.
TOKEN_SIZE = 16

_HEADER = struct.Struct("<4sBBII")
_CRC = struct.Struct("<I")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_UPDATE = struct.Struct("<BIIQI")
_RESULT_HEAD = struct.Struct("<IB")

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
def _key_column(keys: Sequence[int]) -> bytes:
    """Keys as ``u64`` little-endian (wrapped modulo 2**64)."""
    try:
        return np.array(keys, dtype="<i8").tobytes()
    except OverflowError:
        return np.array([int(key) & 0xFFFFFFFFFFFFFFFF for key in keys],
                        dtype="<u8").tobytes()


def _pack_keys(keys: Sequence[int]) -> bytes:
    return _U32.pack(len(keys)) + _key_column(keys)


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
    keys = np.frombuffer(payload, "<u8", count, offset).tolist()
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


#: Encodings by wire code (the byte after a RESULT's count).
_ENCODINGS = tuple(Encoding)
_ENCODING_WIRE = {encoding: code for code, encoding in enumerate(_ENCODINGS)}
#: Status strings by wire code.
_STATUS_NAMES = tuple(_STATUS_STRINGS[code] for code in Status)
#: Bytes per key of a RESULT's fixed columns: status, key, count, first.
_RESULT_COLUMNS = 1 + 8 + 4 + 8
#: Most match-vector bits one RESULT may decode to, summed over its keys
#: (each key counts its highest address + 1): the bits of a largest frame
#: filled with raw vectors. It keeps a hostile frame from making the
#: decoder build gigantic ints.
_MAX_VECTOR_BITS = 8 * MAX_FRAME_SIZE


def encode_results(
    results: Sequence[Tuple[str, SearchResult, Optional[str]]],
) -> bytes:
    """RESULT payload of ``(status, result, error)`` rows: ``u32 n``,
    ``u8 encoding``, then the columns ``status u8[n]``, ``key u64[n]``,
    ``count u32[n]``, ``first i64[n]`` (``-1`` on a miss), then as ``u32``
    the other addresses of every key that matched more than once, in key
    order, each key's ascending, then for each row whose status is not
    ``ok``, in row order, ``u32 length`` and its UTF-8 error message
    (empty for none; an ``ok`` row's error is not sent). Every result
    must share one encoding (they come from one CAM)."""
    statuses = bytes([_STATUS_CODES.get(status, Status.ERROR)
                      for status, _, _ in results])
    found = [result for _, result, _ in results]
    encoding = found[0].encoding if found else Encoding.PRIORITY
    for result in found:
        if result.encoding is not encoding:
            raise ConfigError("one RESULT frame carries one result encoding")
    counts = [result.match_count for result in found]
    firsts = [-1 if result.address is None else result.address
              for result in found]
    extras: List[int] = []
    for result, matched, first in zip(found, counts, firsts):
        if matched > 1:
            rest = result.match_vector ^ (1 << first)
            while rest:
                low = rest & -rest
                extras.append(low.bit_length() - 1)
                rest ^= low
    messages: List[bytes] = []
    for status, _, error in results:
        if status != "ok":
            text = (error or "").encode("utf-8")
            messages += (_U32.pack(len(text)), text)
    return b"".join((
        _RESULT_HEAD.pack(len(found), _ENCODING_WIRE[encoding]),
        statuses,
        _key_column([result.key for result in found]),
        np.array(counts, dtype="<u4").tobytes(),
        np.array(firsts, dtype="<i8").tobytes(),
        np.array(extras, dtype="<u4").tobytes() if extras else b"",
        *messages,
    ))


def decode_results(
    payload: bytes,
) -> List[Tuple[str, SearchResult, Optional[str]]]:
    """Each ``(status, SearchResult, error)`` row of a RESULT payload,
    the result bit-identical to the one encoded (``match_vector``
    rebuilt from the first and extra addresses) and ``error`` ``None``
    for an ``ok`` row or an empty message. Any malformed payload --
    truncated, trailing bytes, unknown status or encoding, addresses
    out of order or beyond ``_MAX_VECTOR_BITS``, a message that is not
    UTF-8 -- raises :class:`ProtocolError`."""
    size = len(payload)
    if size < _RESULT_HEAD.size:
        raise ProtocolError("truncated RESULT payload")
    count, encoding_code = _RESULT_HEAD.unpack_from(payload)
    if encoding_code >= len(_ENCODINGS):
        raise ProtocolError(f"unknown result encoding {encoding_code}")
    encoding = _ENCODINGS[encoding_code]
    offset = _RESULT_HEAD.size
    columns_end = offset + count * _RESULT_COLUMNS
    if size < columns_end:
        raise ProtocolError(
            f"truncated RESULT columns ({count} keys declared, "
            f"{size - offset} bytes left)"
        )
    try:
        statuses = [_STATUS_NAMES[code]
                    for code in payload[offset:offset + count]]
    except IndexError:
        raise ProtocolError(
            f"unknown status code {max(payload[offset:offset + count])}"
        ) from None
    offset += count
    keys = np.frombuffer(payload, "<u8", count, offset).tolist()
    offset += 8 * count
    counts = np.frombuffer(payload, "<u4", count, offset).tolist()
    offset += 4 * count
    firsts = np.frombuffer(payload, "<i8", count, offset).tolist()
    # Each key past its first match adds one extra address.
    extra = sum(counts) - count + counts.count(0)
    offset = columns_end + 4 * extra
    if size < offset:
        raise ProtocolError(
            f"RESULT of {size} bytes, expected at least {offset} "
            f"for {count} keys with {extra} extra addresses"
        )
    extras = (np.frombuffer(payload, "<u4", extra, columns_end).tolist()
              if extra else [])
    errors: List[Optional[str]] = [None] * count
    try:
        for row, status in enumerate(statuses):
            if status != "ok":
                (length,) = _U32.unpack_from(payload, offset)
                offset += _U32.size + length
                text = payload[offset - length:offset].decode("utf-8")
                errors[row] = text or None
    except struct.error:
        raise ProtocolError("truncated RESULT error messages") from None
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed RESULT error message: {exc}") from exc
    if offset != size:  # a message overrunning the payload lands here too
        raise ProtocolError(
            f"RESULT of {size} bytes, expected {offset} "
            f"for {count} keys with {extra} extra addresses"
        )
    results: List[Tuple[str, SearchResult, Optional[str]]] = []
    append = results.append
    bits = at = 0
    for status, key, matched, first, error in zip(statuses, keys, counts,
                                                  firsts, errors):
        if not matched:
            if first != -1:
                raise ProtocolError(f"miss of key {key} has address {first}")
            append((status, SearchResult(key, False, None, 0, 0, encoding),
                    error))
            continue
        tail = extras[at:at + matched - 1]
        at += matched - 1
        if tail and (tail[0] <= first
                     or any(a >= b for a, b in zip(tail, tail[1:]))):
            raise ProtocolError(f"addresses of key {key} are not ascending")
        bits += (tail[-1] if tail else first) + 1
        if first < 0 or bits > _MAX_VECTOR_BITS:
            raise ProtocolError(f"match addresses of key {key} out of range")
        vector = 1 << first
        for address in tail:
            vector |= 1 << address
        append((status, SearchResult(key, True, first, vector, matched,
                                     encoding), error))
    return results


def encode_update_ack(status: str, stats: Optional[UpdateStats],
                      error: Optional[str] = None) -> bytes:
    """UPDATED payload: ``u8 status, u32 words, u32 beats, u64 cycles,
    u32 length`` and the UTF-8 error message (empty for none)."""
    stats = stats or UpdateStats(words=0, beats=0, cycles=0)
    message = (error or "").encode("utf-8")
    return _UPDATE.pack(status_to_wire(status), stats.words, stats.beats,
                        stats.cycles, len(message)) + message


def decode_update_ack(
    payload: bytes,
) -> Tuple[str, UpdateStats, Optional[str]]:
    """``(status, stats, error)`` of an UPDATED payload; an empty
    message decodes as ``None``."""
    if len(payload) < _UPDATE.size:
        raise ProtocolError(
            f"UPDATED payload must be at least {_UPDATE.size} bytes, "
            f"got {len(payload)}"
        )
    status_code, words, beats, cycles, length = _UPDATE.unpack_from(payload)
    if len(payload) != _UPDATE.size + length:
        raise ProtocolError(
            f"UPDATED message of {len(payload) - _UPDATE.size} bytes, "
            f"header says {length}"
        )
    try:
        error = payload[_UPDATE.size:].decode("utf-8") or None
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed UPDATED message: {exc}") from exc
    return status_from_wire(status_code), UpdateStats(
        words=words, beats=beats, cycles=cycles
    ), error


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
