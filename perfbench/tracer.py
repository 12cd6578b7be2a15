"""In-memory span tracer wrapped around each layer's public calls.

:class:`Tracer` patches the public entry points of every layer for the
duration of a traced phase and restores them afterwards; ``repro.obs``
stays disabled. Layers and the calls that open their spans:

=========  ==========================================================
net        ``CamClient.lookup_many`` / ``insert`` / ``delete`` (one
           span per frame, client send to client answer); the
           ``protocol`` codecs and ``FrameDecoder.feed`` are timed as
           codec work
service    ``CamService.lookup`` / ``insert`` / ``delete``
sharded    ``ShardedCam.search`` / ``update`` / ``delete`` and the
           shard-level ``search_shard`` / ``update_shard`` /
           ``delete_shard``; ``partition_update`` is timed per word
replica    ``ReplicaSet.search`` / ``update`` / ``delete``
batch      ``BatchSession.search`` / ``update`` / ``delete``
cycle      ``CamSession.search`` / ``update`` / ``delete``
=========  ==========================================================

A span's parent is the span open in the same task (a context
variable). Two hand-offs cross tasks and are linked explicitly:

- the socket: request frames are answered in the order they are sent
  on the one connection, so each request frame the client encodes
  queues its net span and the server-side request decoder takes the
  oldest one as the parent of everything its handler starts;
- the service dispatchers: a shard call's parents are the waiting
  service requests it serves, matched by key (lookups, deletes) or by
  the global addresses ``partition_update`` bound (inserts).

A call into a layer from inside a span of the same layer (for example
``ShardedCam.search`` calling ``search_shard``) opens no new span.
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple

from helpers import Span, median, self_times

_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

_SEARCH_OPS = ("search", "search_shard")
_WRITE_OPS = ("update", "delete")


def _keys(args, kwargs) -> int:
    """Keys or words passed as the call's first argument."""
    return len(args[1])


def _one(args, kwargs) -> int:
    return 1


def _shard_keys(args, kwargs) -> int:
    return len(args[2])


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.codec_s = 0.0
        self.wire_bytes = 0
        self.partition_s = 0.0
        self.partition_words = 0
        self.service_latencies: List[float] = []
        self._patches: List[Tuple[object, str, bool, object]] = []
        #: net spans of request frames, in send order.
        self._frames: deque = deque()
        #: (op, key) -> service spans waiting for a shard call.
        self._waiting: Dict[Tuple[str, int], deque] = defaultdict(deque)
        #: (words, service span) of inserts not yet partitioned.
        self._waiting_inserts: deque = deque()
        #: global address -> service span of the insert that bound it.
        self._address_owner: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.core.batch import BatchSession
        from repro.core.session import CamSession
        from repro.net import protocol
        from repro.net.client import CamClient
        from repro.service.replica import ReplicaSet
        from repro.service.scheduler import CamService
        from repro.service.sharded import ShardedCam

        self._patch_async(CamClient, "lookup_many", "net", "lookup", _keys)
        self._patch_async(CamClient, "insert", "net", "insert", _keys)
        self._patch_async(CamClient, "delete", "net", "delete", _one)
        for name in ("encode_lookup", "encode_mutation", "encode_results",
                     "decode_results", "encode_update_ack",
                     "decode_update_ack"):
            self._patch(protocol, name, self._codec)
        self._patch(protocol, "encode_frame", self._encode_frame)
        self._patch(protocol, "decode_lookup", self._decode_request)
        self._patch(protocol, "decode_mutation", self._decode_request)
        self._patch(protocol.FrameDecoder, "feed", self._codec)

        latency = (lambda response:
                   self.service_latencies.append(response.latency_s))
        self._patch_async(CamService, "lookup", "service", "lookup", _one,
                          self._wait_for_key("lookup"), latency)
        self._patch_async(CamService, "delete", "service", "delete", _one,
                          self._wait_for_key("delete"), latency)
        self._patch_async(CamService, "insert", "service", "insert", _one,
                          self._wait_for_partition, latency)

        self._patch_sync(ShardedCam, "search", "sharded", "search", _keys)
        self._patch_sync(ShardedCam, "update", "sharded", "update", _keys)
        self._patch_sync(ShardedCam, "delete", "sharded", "delete", _one)
        self._patch_sync(ShardedCam, "search_shard", "sharded",
                         "search_shard", _shard_keys,
                         link=self._link_keys("lookup"))
        self._patch_sync(ShardedCam, "delete_shard", "sharded",
                         "delete_shard", _one,
                         link=self._link_keys("delete"))
        self._patch_sync(ShardedCam, "update_shard", "sharded",
                         "update_shard", _shard_keys,
                         link=self._link_addresses)
        self._patch(ShardedCam, "partition_update", self._partition)

        member_cycles = (lambda args: [r.cycle for r in args[0].replicas])
        self._patch_sync(ReplicaSet, "search", "replica", "search", _keys)
        self._patch_sync(ReplicaSet, "update", "replica", "update", _keys,
                         cycles=member_cycles)
        self._patch_sync(ReplicaSet, "delete", "replica", "delete", _one,
                         cycles=member_cycles)

        own_cycle = (lambda args: [args[0].cycle])
        for cls, layer in ((BatchSession, "batch"), (CamSession, "cycle")):
            self._patch_sync(cls, "search", layer, "search", _keys,
                             cycles=own_cycle)
            self._patch_sync(cls, "update", layer, "update", _keys,
                             cycles=own_cycle)
            self._patch_sync(cls, "delete", layer, "delete", _one,
                             cycles=own_cycle)

    def uninstall(self) -> None:
        for owner, name, had, original in reversed(self._patches):
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()
        self._frames.clear()
        self._waiting.clear()
        self._waiting_inserts.clear()
        self._address_owner.clear()

    def _patch(self, owner, name: str, make: Callable) -> None:
        had = name in vars(owner)
        original = vars(owner)[name] if had else None
        self._patches.append((owner, name, had, original))
        setattr(owner, name, make(getattr(owner, name)))

    # ------------------------------------------------------------------
    # span wrappers
    # ------------------------------------------------------------------
    def _open(self, layer: str, op: str, units: int,
              parents: Tuple[int, ...]) -> int:
        self.spans.append(Span(layer, op, parents, units))
        return len(self.spans) - 1

    def _patch_sync(self, owner, name, layer, op, units, *, link=None,
                    cycles=None) -> None:
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = _current.get()
                if parent is not None and self.spans[parent].layer == layer:
                    return fn(*args, **kwargs)
                if parent is not None:
                    parents = (parent,)
                else:
                    parents = link(args, kwargs) if link else ()
                index = self._open(layer, op, units(args, kwargs), parents)
                span = self.spans[index]
                before = cycles(args) if cycles else None
                token = _current.set(index)
                span.start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    _current.reset(token)
                    if before is not None:
                        after = cycles(args)
                        deltas = [a - b for a, b in zip(after, before)]
                        span.cycles = sum(deltas)
                        if layer == "replica":
                            span.preferred_cycles = deltas[args[0].preferred]
            return wrapper

        self._patch(owner, name, make)

    def _patch_async(self, owner, name, layer, op, units,
                     wait=None, on_result=None) -> None:
        def make(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                parent = _current.get()
                index = self._open(layer, op, units(args, kwargs),
                                   () if parent is None else (parent,))
                span = self.spans[index]
                release = wait(index, args) if wait else None
                token = _current.set(index)
                span.start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    _current.reset(token)
                    if release is not None:
                        release()
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper

        self._patch(owner, name, make)

    # ------------------------------------------------------------------
    # codec timing and the socket hand-off
    # ------------------------------------------------------------------
    def _codec(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.codec_s += time.perf_counter() - started
        return wrapper

    def _encode_frame(self, fn):
        timed = self._codec(fn)

        @functools.wraps(fn)
        def wrapper(opcode, request_id, payload=b""):
            blob = timed(opcode, request_id, payload)
            self.wire_bytes += len(blob)
            current = _current.get()
            if (int(opcode) < 0x80 and current is not None
                    and self.spans[current].layer == "net"):
                self._frames.append(current)
            return blob
        return wrapper

    def _decode_request(self, fn):
        timed = self._codec(fn)

        @functools.wraps(fn)
        def wrapper(payload):
            decoded = timed(payload)
            if self._frames:
                # Runs first thing in the server's per-frame handler
                # task: everything the handler starts inherits it.
                _current.set(self._frames.popleft())
            return decoded
        return wrapper

    # ------------------------------------------------------------------
    # the dispatcher hand-off
    # ------------------------------------------------------------------
    def _wait_for_key(self, op: str):
        def wait(index: int, args):
            queue = self._waiting[(op, int(args[1]))]
            queue.append(index)

            def release():
                try:
                    queue.remove(index)
                except ValueError:
                    pass  # already claimed by the shard call
            return release
        return wait

    def _wait_for_partition(self, index: int, args):
        entry = (tuple(int(w) for w in args[1]), index)
        self._waiting_inserts.append(entry)

        def release():
            try:
                self._waiting_inserts.remove(entry)
            except ValueError:
                pass
        return release

    def _link_keys(self, op: str):
        def link(args, kwargs) -> Tuple[int, ...]:
            keys = [args[2]] if op == "delete" else args[2]
            parents = []
            for key in keys:
                queue = self._waiting.get((op, int(key)))
                if queue:
                    parents.append(queue.popleft())
            return tuple(dict.fromkeys(parents))
        return link

    def _link_addresses(self, args, kwargs) -> Tuple[int, ...]:
        addresses = kwargs.get("addresses", args[3] if len(args) > 3 else ())
        owners = {self._address_owner.pop(int(a), None) for a in addresses}
        owners.discard(None)
        return tuple(sorted(owners))

    def _partition(self, fn):
        @functools.wraps(fn)
        def wrapper(cam, words):
            words = list(words)
            started = time.perf_counter()
            parts = fn(cam, words)
            self.partition_s += time.perf_counter() - started
            self.partition_words += len(words)
            if _current.get() is None:
                wanted = tuple(int(w) for w in words)
                for entry in self._waiting_inserts:
                    if entry[0] == wanted:
                        self._waiting_inserts.remove(entry)
                        for _, addresses in parts.values():
                            for address in addresses:
                                self._address_owner[int(address)] = entry[1]
                        break
            return parts
        return wrapper

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures derivable from the spans alone."""
        own = self_times(self.spans)
        by_layer: Dict[str, List[Tuple[Span, float]]] = defaultdict(list)
        for span, self_s in zip(self.spans, own):
            by_layer[span.layer].append((span, self_s))

        def pick(layer, ops=None):
            return [(s, t) for s, t in by_layer.get(layer, ())
                    if ops is None or s.op in ops]

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        net = pick("net")
        frames = len(net)
        service = pick("service")
        sharded_search = pick("sharded", _SEARCH_OPS)
        replica_writes = pick("replica", _WRITE_OPS)
        metrics = {
            "net.frames": frames,
            "net.bytes_per_key": ratio(self.wire_bytes,
                                       sum(s.units for s, _ in net)),
            "net.codec_us_per_frame": ratio(self.codec_s, frames, 1e6),
            "net.self_us_per_frame": ratio(sum(t for _, t in net), frames,
                                           1e6),
            "service.latency_p50_us": (median(self.service_latencies) * 1e6
                                       if self.service_latencies else 0.0),
            "service.self_us_per_request": ratio(
                sum(t for _, t in service), len(service), 1e6),
            "sharded.keys_per_call": ratio(
                sum(s.units for s, _ in sharded_search), len(sharded_search)),
            "sharded.self_us_per_key": ratio(
                sum(t for _, t in sharded_search),
                sum(s.units for s, _ in sharded_search), 1e6),
            "sharded.partition_us_per_word": ratio(
                self.partition_s, self.partition_words, 1e6),
            "replica.write_amplification": ratio(
                sum(s.cycles for s, _ in replica_writes),
                sum(s.preferred_cycles for s, _ in replica_writes)),
            "replica.self_us_per_write": ratio(
                sum(t for _, t in replica_writes), len(replica_writes), 1e6),
        }
        batch_search = pick("batch", ("search",))
        batch_update = pick("batch", ("update",))
        batch_delete = pick("batch", ("delete",))
        metrics.update({
            "batch.keys_per_call": ratio(
                sum(s.units for s, _ in batch_search), len(batch_search)),
            "batch.search_us_per_key": ratio(
                sum(t for _, t in batch_search),
                sum(s.units for s, _ in batch_search), 1e6),
            "batch.update_us_per_word": ratio(
                sum(t for _, t in batch_update),
                sum(s.units for s, _ in batch_update), 1e6),
            "batch.delete_us_per_call": ratio(
                sum(t for _, t in batch_delete), len(batch_delete), 1e6),
        })
        cycle_all = pick("cycle")
        cycle_search = pick("cycle", ("search",))
        metrics.update({
            "cycle.host_ms_per_sim_cycle": ratio(
                sum(s.duration for s, _ in cycle_all),
                sum(s.cycles for s, _ in cycle_all), 1e3),
            "cycle.search_ms_per_key": ratio(
                sum(t for _, t in cycle_search),
                sum(s.units for s, _ in cycle_search), 1e3),
            "cycle.sim_cycles": ratio(
                sum(s.cycles for s, _ in cycle_search),
                sum(s.units for s, _ in cycle_search), 1000),
        })
        return metrics
