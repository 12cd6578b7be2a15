"""Exception hierarchy for the DSP-CAM reproduction library.

All exceptions raised on purpose by :mod:`repro` derive from
:class:`ReproError`, so downstream users can catch a single type at an
integration boundary while tests can assert the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An architectural parameter is invalid or inconsistent.

    Raised while validating :mod:`repro.core.config` dataclasses, e.g. a
    storage width above 48 bits or a non power-of-two block size.
    """


class CapacityError(ReproError):
    """An operation would exceed a hardware capacity.

    Raised when updating a full CAM block/unit or when a requested
    configuration does not fit the target device.
    """


class SimulationError(ReproError):
    """The cycle simulator was driven in an unsupported way.

    Examples: conflicting writes to the same scheduled attribute in one
    cycle, or a ``run_until`` that exceeds its cycle budget.
    """


class MaskError(ReproError):
    """A CAM mask is malformed for the selected CAM type.

    For example a range-matching CAM range whose bounds are not aligned
    to a power-of-two block, which the DSP MASK register cannot express.
    """


class RoutingError(ReproError):
    """Group/block routing is inconsistent.

    Raised when the requested group count does not divide the number of
    blocks, or when more concurrent queries than groups are issued.
    """


#: Caller mistakes: deterministic and identical on every shard and
#: replica, so they propagate unchanged and never fence a backend off.
CLIENT_ERRORS = (ConfigError, CapacityError, RoutingError, MaskError)


class AuditError(ReproError):
    """The differential audit engine observed a batch/cycle divergence.

    Raised (in strict mode) when the vectorized batch engine and the
    cycle-accurate simulator disagree on a result or a cycle count for
    the same operation sequence.
    """


class ServiceError(ReproError):
    """Base class for sharded CAM service failures (:mod:`repro.service`)."""


class ShardFailedError(ServiceError):
    """A shard has failed: its replica set has no healthy replica left.

    The service isolates the failure: the failed shard keeps answering
    miss-with-error while the remaining shards serve normally.
    ``shard`` identifies the failed shard. When the call itself
    exhausted the set, the message and ``__cause__`` name the backend
    fault that did it; a call that finds the shard already failed
    carries the set's :class:`ReplicaExhaustedError` instead, whose
    message lists every replica's fault.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard


class RequestTimeoutError(ServiceError):
    """A service request missed its deadline before dispatch completed."""


class ServiceOverloadError(ServiceError):
    """The server answered with an ``OVERLOADED`` error frame.

    Client-side only: :class:`repro.net.client.CamClient` raises it for
    that frame (a server at its connection limit sends one). The
    service itself never rejects on load: it admits every request on
    call.
    """


class ServiceDrainingError(ServiceError):
    """The service is draining for shutdown and admits no new requests.

    In-flight requests complete normally; callers that see this error
    should retry against another instance (the network layer maps it
    onto a ``RETRY_LATER`` error frame).
    """


class ReplicaExhaustedError(ServiceError):
    """Every replica of a replica set has failed.

    Raised by :class:`repro.service.replica.ReplicaSet` when an
    operation finds no healthy replica to serve it, chained to the
    fault that exhausted the set when the operation caused it. The
    sharded layer turns it into a :class:`ShardFailedError` for the
    owning shard -- a shard has failed exactly when its set is
    exhausted.
    """


class SnapshotError(ReproError):
    """A CAM snapshot is malformed or incompatible with its target.

    Raised when decoding a corrupt/unsupported snapshot payload or when
    restoring a snapshot into a backend whose configuration (width, CAM
    type, group structure, capacity) cannot reproduce the captured
    state bit-identically.
    """


class NetError(ReproError):
    """Base class for network-layer failures (:mod:`repro.net`)."""


class ProtocolError(NetError):
    """A wire frame violates the ``repro.net`` binary protocol.

    Covers bad magic, unsupported protocol versions, CRC mismatches,
    unknown opcodes and malformed payloads. A server that hits this on
    a connection answers with a structured error frame and closes the
    connection -- the stream offset can no longer be trusted.
    """


class FrameTooLargeError(ProtocolError):
    """A frame declares a payload above the configured size limit."""


class ConnectionLostError(NetError):
    """The peer vanished mid-conversation.

    Raised into every response future still pending on the connection;
    the pipelined client treats it as retryable (idempotency tokens
    make mutating retries exactly-once on the server).
    """


class HdlGenError(ReproError):
    """Verilog generation failed (bad identifier, impossible template)."""


class DatasetError(ReproError):
    """A graph dataset is unknown or its stand-in cannot be generated."""


class DeviceError(ReproError):
    """An FPGA device is unknown or lacks a required resource column."""


class ObsError(ReproError):
    """Telemetry misuse or a malformed observability artefact.

    Raised when a metric is re-registered with a conflicting type,
    when a benchmark manifest fails schema validation, or when a trace
    export is asked for an impossible encoding.
    """
