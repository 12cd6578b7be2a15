"""One framed connection: the :class:`asyncio.Protocol` under both
:class:`~repro.net.server.CamServer` and :class:`~repro.net.client.CamClient`.

It runs no task of its own. ``data_received`` decodes frames; ``send``
queues one, and ``flush`` writes a loop turn's frames in one
``transport.write``, in queue order (at once past 64 KiB); ``writable``
is done while the transport is below its high-water mark, and ``lost``
resolves when the connection is gone.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional

from repro.errors import ProtocolError
from repro.net.protocol import MAX_FRAME_SIZE, FrameDecoder

#: Queued bytes above which ``send`` writes at once (asyncio's default
#: transport high-water mark).
HIGH_WATER = 64 * 1024


class FrameChannel(asyncio.Protocol):
    """Decoding, one write per loop turn and flow control.

    A subclass implements ``frames_received(frames)`` and
    ``decode_failed(exc)``, which hangs up (the stream offset is
    untrustworthy after a framing error), and may implement
    ``sent(frames, size)``, called after each write.
    """

    def __init__(self, max_frame_size: int = MAX_FRAME_SIZE) -> None:
        self.loop = asyncio.get_running_loop()
        self.decoder = FrameDecoder(max_frame_size=max_frame_size)
        self.transport: Optional[asyncio.Transport] = None
        #: encoded frames not yet handed to the transport.
        self.outbox: List[bytes] = []
        self.outbox_bytes = 0
        self.writable: asyncio.Future = self.loop.create_future()
        self.writable.set_result(None)
        self.lost: asyncio.Future = self.loop.create_future()

    def sent(self, frames: int, size: int) -> None:
        pass

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except ProtocolError as exc:
            self.decode_failed(exc)
            return
        self.frames_received(frames)

    def pause_writing(self) -> None:
        if self.writable.done():
            self.writable = self.loop.create_future()

    def resume_writing(self) -> None:
        if not self.writable.done():
            self.writable.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.resume_writing()  # wake writers; the loss fails them
        if not self.lost.done():
            self.lost.set_result(None)

    def send(self, blob: bytes) -> None:
        """Queue one frame; the first frame of a loop turn schedules
        the flush that writes the turn's frames at once."""
        if not self.outbox:
            self.loop.call_soon(self.flush)
        self.outbox.append(blob)
        self.outbox_bytes += len(blob)
        if self.outbox_bytes > HIGH_WATER:
            self.flush()

    def flush(self) -> None:
        if self.outbox and not self.transport.is_closing():
            data = b"".join(self.outbox)
            self.transport.write(data)
            self.sent(len(self.outbox), len(data))
        self.outbox.clear()
        self.outbox_bytes = 0

    def close(self) -> None:
        """Write what is queued, then close once the transport drains."""
        self.flush()
        self.transport.close()


__all__ = ["FrameChannel"]
