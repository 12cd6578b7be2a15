"""repro.net: binary wire protocol, asyncio CAM server and client.

The network front end for the sharded/replicated CAM service -- the
reproduction's analogue of the I/O architecture that bounds a hardware
CAM's deliverable throughput (an efficient match array is worthless
behind a slow front end; see PAPERS.md, Nguyen et al.). Four modules:

- :mod:`repro.net.protocol` -- a versioned, length-prefixed,
  CRC-checked binary framing covering LOOKUP / INSERT / DELETE /
  SNAPSHOT / STATS / PING, with batch-request encoding (one frame, many
  keys) and structured error frames mapped onto :mod:`repro.errors`;
- :mod:`repro.net.channel` -- ``FrameChannel``, the one
  :class:`asyncio.Protocol` under both ends (no task per connection);
- :mod:`repro.net.server` -- :class:`CamServer`, an asyncio TCP server
  wrapping :class:`~repro.service.scheduler.CamService` that admits
  each request frame as it is decoded, in frame order, with no task
  per frame (its reply leaves from the answer future's done callback),
  connection/frame-size limits, an idle timer, graceful drain
  (in-flight requests complete, new ones get ``RETRY_LATER``) and
  ``net_*`` telemetry;
- :mod:`repro.net.client` -- :class:`CamClient`, a pipelined client
  that multiplexes concurrent requests over a connection pool by
  request id and retries with backoff on connection loss (idempotency
  tokens make mutating retries exactly-once on the server).

``python -m repro loadgen`` drives a :class:`CamClient` with
:func:`repro.service.drive`, the same traffic driver ``serve-demo``
runs in process.

The ``wire`` stack of the differential harness
(``tests/test_differential.py::TestWire``) holds the network path to
answers bit-identical to :class:`~repro.core.ReferenceCam`, including
under injected connection kills. See ``docs/networking.md`` for the
frame layout and failure semantics.
"""

from __future__ import annotations

from repro.net.client import CamClient
from repro.net.protocol import (
    ERROR_CODES,
    MAX_FRAME_SIZE,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    ErrorCode,
    Frame,
    FrameDecoder,
    Opcode,
    Status,
)
from repro.net.server import CamServer, ServerStats

__all__ = [
    "ERROR_CODES",
    "MAX_FRAME_SIZE",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "CamClient",
    "CamServer",
    "ErrorCode",
    "Frame",
    "FrameDecoder",
    "Opcode",
    "ServerStats",
    "Status",
]
