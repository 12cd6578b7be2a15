"""Async front door for the sharded CAM: admission + micro-batching.

:class:`CamService` turns a :class:`~repro.service.sharded.ShardedCam`
into a concurrent service with the shape of the hardware arbiter it
mirrors:

- **bounded admission queue** -- requests enter one bounded
  :class:`asyncio.Queue`; when it is full admission applies
  backpressure (``await`` until a slot frees);
- **one dispatcher** -- a single task reads the admission queue,
  routes each request to the shards it touches (binding an insert's
  global addresses in admission order) and gathers a micro-batch until
  ``max_delay_s`` has passed since its first request or one shard
  holds ``max_batch`` requests; the flush runs each shard's FIFO
  sub-sequence as a few vectorized calls on that shard's backend, then
  merges and resolves every request;
- **per-request timeout** -- a request that has not dispatched by its
  deadline resolves with ``status="timeout"`` instead of occupying the
  pipeline. Deadlines are checked once per flush, so a request runs on
  all of its shards or on none;
- **per-shard failure isolation** -- a shard whose replica set has no
  healthy replica left has failed; requests touching it resolve as
  miss-with-error (``status="shard_failed"``) while the healthy shards
  keep serving.

Every stage is threaded through :mod:`repro.obs`: admission queue
depth, queue wait, batch occupancy, per-shard dispatch latency,
request latency and outcome counters (see ``docs/service.md``).

The dispatcher executes shard calls inline on the event loop -- the
backends are NumPy-vectorized and release the loop between batches,
which is the same trade a single-threaded arbiter makes in hardware.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.session import RawWord, UpdateStats
from repro.core.types import SearchResult
from repro.errors import (
    CLIENT_ERRORS,
    ConfigError,
    ServiceDrainingError,
    ServiceError,
    ShardFailedError,
)
from repro.service.sharded import ShardedCam, merge_results

#: Sentinel that flows through the admission queue to stop the dispatcher.
_STOP = object()
#: Loop turns the dispatcher gives up per request it routes inside a
#: micro-batch window -- the turns the per-request ``wait_for`` task of
#: the earlier dispatcher took. Routing faster holds back the answers
#: and frames that share the loop: wire-churn lookup p50 rose 11% with
#: no turn and 2% with one.
_ROUTE_TURNS = 3
#: Auto-repair retries a shard after this delay, doubling to the cap.
_REPAIR_BACKOFF_S = 0.05
_REPAIR_BACKOFF_MAX_S = 2.0


@dataclass(frozen=True)
class ServiceResponse:
    """Outcome of one admitted request.

    ``status`` is one of ``"ok"``, ``"timeout"``, ``"shard_failed"``
    (a failed shard; lookups degrade to a miss) or ``"error"`` (a
    client mistake such as overflowing a shard's capacity). ``result``
    carries the merged :class:`SearchResult` for lookups/deletes,
    ``stats`` the aggregated :class:`UpdateStats` for inserts.
    """

    kind: str
    status: str
    result: Optional[SearchResult] = None
    stats: Optional[UpdateStats] = None
    shards: Tuple[int, ...] = ()
    latency_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServiceStats:
    """Plain counters mirrored outside the obs registry (always on)."""

    admitted: int = 0
    completed: int = 0
    ok: int = 0
    timeouts: int = 0
    shard_failures: int = 0
    client_errors: int = 0
    dispatches: int = 0
    dispatched_requests: int = 0
    max_queue_depth: int = 0
    repairs_completed: int = 0
    repairs_failed: int = 0

    @property
    def mean_batch_occupancy(self) -> float:
        if not self.dispatches:
            return 0.0
        return self.dispatched_requests / self.dispatches


class _Request:
    """One admitted operation and its per-shard answers."""

    __slots__ = ("kind", "key", "words", "parts", "future", "deadline",
                 "admitted_t", "targets", "answers", "degraded", "error")

    def __init__(self, kind: str, *, key: int = 0,
                 words: Optional[List[RawWord]] = None,
                 parts: Optional[Dict[int, Tuple[List[RawWord],
                                            List[int]]]] = None) -> None:
        self.kind = kind
        self.key = key
        self.words = words
        self.parts = parts
        self.future: "asyncio.Future[ServiceResponse]" = (
            asyncio.get_running_loop().create_future()
        )
        self.deadline = 0.0
        self.admitted_t = 0.0
        #: shards the request touches, bound at routing.
        self.targets: List[int] = []
        #: shard -> SearchResult (lookups, deletes) or UpdateStats
        #: (inserts), for the shards that executed the request.
        self.answers: Dict[int, Union[SearchResult, UpdateStats]] = {}
        #: detail of a failed-shard degradation, if any.
        self.degraded: Optional[str] = None
        #: detail of a client error a shard raised, if any.
        self.error: Optional[str] = None


class CamService:
    """Micro-batching async scheduler over a :class:`ShardedCam`.

    Use as an async context manager::

        cam = repro.open_session(config, engine="batch", shards=4)
        async with CamService(cam, max_batch=64, max_delay_s=0.002) as svc:
            response = await svc.lookup(42)

    One dispatcher task feeds every shard from the admission queue, as
    the paper's CAM unit feeds every group from one input port.
    ``max_batch`` caps the requests one shard takes per micro-batch and
    ``max_delay_s`` bounds how long a micro-batch waits after its first
    request; together they trade latency for batch-engine occupancy
    exactly like the hardware bus packs words per beat. ``queue_depth``
    bounds admission (a full queue makes callers wait);
    ``request_timeout_s`` is the per-request deadline measured from
    admission, and the only one on the serving path --
    :class:`~repro.net.server.CamServer` adds none of its own.
    """

    def __init__(
        self,
        cam: ShardedCam,
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        queue_depth: int = 1024,
        request_timeout_s: float = 1.0,
        auto_repair: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ConfigError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {queue_depth}")
        if request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        self.cam = cam
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.queue_depth = queue_depth
        self.request_timeout_s = request_timeout_s
        self.auto_repair = auto_repair
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._tasks: List[asyncio.Task] = []
        self._running = False
        self._draining = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        #: the dispatcher's wait for more work in an open micro-batch,
        #: resolved by the next admission or the batch's deadline.
        self._waiter: Optional[asyncio.Future] = None
        #: shard -> (next attempt time, current backoff delay).
        self._repair_schedule: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise ServiceError("service already started")
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._tasks = [asyncio.ensure_future(self._dispatcher())]
        self._running = True
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        if self.auto_repair:
            self._tasks.append(asyncio.ensure_future(self._repair_monitor()))

    async def stop(self) -> None:
        """Drain in-flight work, then shut the pipeline down."""
        if not self._running:
            return
        self._running = False
        await self._queue.put(_STOP)
        self._wake()
        await asyncio.gather(*self._tasks)
        self._tasks = []

    async def drain(self) -> None:
        """Stop admitting new requests and wait for in-flight ones.

        After this returns every previously admitted request has
        resolved (ok, timeout, degraded or error) while the pipeline is
        still running -- the graceful-shutdown hook the network server
        uses: new work is refused with
        :class:`~repro.errors.ServiceDrainingError` (mapped onto a
        ``RETRY_LATER`` error frame by :mod:`repro.net.server`) the
        moment drain begins, and :meth:`stop` can then tear the
        pipeline down with nothing left in flight.
        """
        if not self._running:
            return
        self._draining = True
        await self._idle.wait()

    @property
    def draining(self) -> bool:
        """True between :meth:`drain` and the next :meth:`start`."""
        return self._draining

    def _track_admit(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _track_done(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    async def __aenter__(self) -> "CamService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def depth(self) -> int:
        """Current admission queue depth."""
        return self._queue.qsize() if self._queue is not None else 0

    def stats_doc(self) -> dict:
        """The ``service`` and ``cam`` sections of the stats document
        (:class:`~repro.net.server.CamServer` adds ``server``)."""
        cam = self.cam
        return {
            "service": {
                **asdict(self.stats),
                "mean_batch_occupancy": self.stats.mean_batch_occupancy,
            },
            "cam": {
                "engine": cam.engine_name,
                "shards": cam.num_shards,
                "replicas": cam.num_replicas,
                "capacity": cam.capacity,
                "occupancy": cam.occupancy,
                "cycle": cam.cycle,
                "poisoned_shards": list(cam.poisoned_shards),
                # str keys: the document reads the same after JSON.
                "failed_replicas": {
                    str(shard): list(cam.sessions[shard].failed_replicas)
                    for shard in cam.degraded_shards
                },
            },
        }

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    async def repair_shard(self, shard: int) -> bool:
        """Rebuild a degraded shard's failed replicas.

        For each failed replica of the shard's
        :class:`~repro.service.replica.ReplicaSet`: snapshot a healthy
        donor, yield the loop once so writes admitted meanwhile land in
        the bounded catch-up log, then restore + replay + reinstate.
        Returns ``True`` when the shard ends the call fully healthy. A
        failed shard -- no healthy replica left -- has no donor to
        rebuild from: the call returns ``False`` and counts no failed
        repair (:meth:`ShardedCam.reset` or a restore heals it).
        """
        if not 0 <= shard < self.cam.num_shards:
            raise ConfigError(
                f"shard {shard} out of range (0..{self.cam.num_shards - 1})"
            )
        if not self.cam.shard_healthy(shard):
            return False
        backend = self.cam.sessions[shard]
        failed = backend.failed_replicas
        with obs.span("svc.repair_shard", shard=shard,
                      failed=len(failed)):
            for index in failed:
                try:
                    backend.begin_rebuild(index)
                    # Let concurrently-admitted writes interleave; they
                    # are recorded in the catch-up log and replayed.
                    await asyncio.sleep(0)
                    backend.finish_rebuild(index)
                except ServiceError:
                    self.stats.repairs_failed += 1
                    obs.inc("svc_repairs_failed_total",
                            help="shard repair attempts that failed",
                            shard=shard)
                    continue
                self.stats.repairs_completed += 1
                obs.inc("svc_repairs_total",
                        help="replica rebuilds completed by the service",
                        shard=shard)
        return not backend.failed_replicas

    async def _repair_monitor(self) -> None:
        """Background auto-repair loop with per-shard exponential backoff."""
        loop = asyncio.get_running_loop()
        while self._running:
            await asyncio.sleep(self.max_delay_s or 0.001)
            now = loop.time()
            for shard in self.cam.degraded_shards:
                next_at, delay = self._repair_schedule.get(
                    shard, (0.0, _REPAIR_BACKOFF_S)
                )
                if now < next_at:
                    continue
                if await self.repair_shard(shard):
                    self._repair_schedule.pop(shard, None)
                else:
                    # Wait the current delay, double it for next time.
                    self._repair_schedule[shard] = (
                        loop.time() + delay,
                        min(delay * 2, _REPAIR_BACKOFF_MAX_S),
                    )

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def lookup(self, key: int) -> ServiceResponse:
        """Search one key; the merged result respects global priority."""
        return await self._admit(_Request("lookup", key=int(key)))

    async def lookup_many(self, keys: Sequence[int]) -> List[ServiceResponse]:
        """Search a batch of keys, one admitted :meth:`lookup` per key;
        the answers come back in key order."""
        if len(keys) == 1:  # no task for a single-key batch
            return [await self.lookup(keys[0])]
        return await asyncio.gather(*[self.lookup(key) for key in keys])

    async def insert(self, words: Sequence[RawWord]) -> ServiceResponse:
        """Store a batch of words (routed per shard by the dispatcher)."""
        words = list(words)
        if not words:
            raise ConfigError("insert needs at least one word")
        return await self._admit(_Request("insert", words=words))

    async def delete(self, key: int) -> ServiceResponse:
        """Delete-by-content wherever the key may live."""
        return await self._admit(_Request("delete", key=int(key)))

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def _admit(self, request: _Request) -> ServiceResponse:
        if not self._running:
            raise ServiceError("service is not running (use 'async with')")
        if self._draining:
            raise ServiceDrainingError(
                "service is draining for shutdown; retry later"
            )
        loop = asyncio.get_running_loop()
        request.admitted_t = loop.time()
        request.deadline = request.admitted_t + self.request_timeout_s
        await self._queue.put(request)
        self._wake()
        self._track_admit()
        self.stats.admitted += 1
        depth = self._queue.qsize()
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        obs.set_gauge("svc_queue_depth", depth,
                      help="admission queue occupancy")
        return await request.future

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatcher(self) -> None:
        """Route admitted requests into micro-batches and flush them.

        A micro-batch opens with the first request that routes to a
        shard and closes when ``max_delay_s`` has passed since then or
        when one shard holds ``max_batch`` of its requests. The batch
        keeps one timer for its deadline; waiting for the next request
        costs a future, not a task.
        """
        loop = asyncio.get_running_loop()
        queue = self._queue
        while True:
            first = await queue.get()
            if first is _STOP:
                return
            if not self._route(first):
                continue
            batch = [first]
            load = Counter(first.targets)
            flush_at = loop.time() + self.max_delay_s
            deadline: Optional[asyncio.TimerHandle] = None
            stopping = False
            while max(load.values()) < self.max_batch:
                if loop.time() < flush_at:
                    if not queue.empty():
                        for _ in range(_ROUTE_TURNS):
                            await asyncio.sleep(0)
                    else:
                        if deadline is None:
                            deadline = loop.call_at(flush_at, self._wake)
                        self._waiter = loop.create_future()
                        await self._waiter
                        self._waiter = None
                if queue.empty():
                    break
                item = queue.get_nowait()
                if item is _STOP:
                    stopping = True
                    break
                if self._route(item):
                    batch.append(item)
                    load.update(item.targets)
            if deadline is not None:
                deadline.cancel()
            self._flush(batch)
            if stopping:
                return

    def _wake(self) -> None:
        """Resume the dispatcher's wait in an open micro-batch."""
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _route(self, request: _Request) -> bool:
        """Bind the shards a request touches; False if it resolved here."""
        obs.set_gauge("svc_queue_depth", self._queue.qsize())
        now = asyncio.get_running_loop().time()
        obs.observe("svc_queue_wait_seconds", now - request.admitted_t,
                    help="admission-to-routing wait",
                    buckets=obs.SECONDS_BUCKETS)
        if now >= request.deadline:
            self._finish(request, "timeout")
            return False
        if request.kind != "insert":
            request.targets = self.cam.shards_for_key(request.key)
            return True
        # Global addresses bind here, in admission order -- the same
        # numbering the reference model uses -- so the merged priority
        # order never depends on the order shards execute in.
        try:
            request.parts = self.cam.partition_update(request.words)
        except CLIENT_ERRORS as exc:
            self._finish(request, "error", error=str(exc))
            return False
        request.targets = sorted(request.parts)
        return True

    def _flush(self, batch: List[_Request]) -> None:
        """Run one micro-batch: every live request on all of its shards.

        Deadlines are checked once, up front, so a request runs on
        every shard it touches or -- if it expired first -- on none.
        """
        now = asyncio.get_running_loop().time()
        live: List[_Request] = []
        plan: Dict[int, List[_Request]] = {}
        for request in batch:
            if now >= request.deadline:
                self._finish(request, "timeout")
                continue
            live.append(request)
            for shard in request.targets:
                plan.setdefault(shard, []).append(request)
        for shard in sorted(plan):
            self._flush_shard(shard, plan[shard])
        for request in live:
            self._resolve(request)

    def _flush_shard(self, shard: int, requests: List[_Request]) -> None:
        """Execute one shard's FIFO sub-sequence of a micro-batch,
        coalescing runs of lookups into single vectorized searches."""
        self.stats.dispatches += 1
        self.stats.dispatched_requests += len(requests)
        obs.observe("svc_batch_occupancy", len(requests),
                    help="requests coalesced per shard micro-batch",
                    buckets=obs.BATCH_BUCKETS, shard=shard)
        runs: List[List[_Request]] = []
        for request in requests:
            if (request.kind == "lookup" and runs
                    and runs[-1][0].kind == "lookup"):
                runs[-1].append(request)
            else:
                runs.append([request])
        started = time.perf_counter()
        with obs.span("svc.flush", shard=shard, occupancy=len(requests)):
            for run in runs:
                self._execute(shard, run)
        obs.observe("svc_shard_latency_seconds",
                    time.perf_counter() - started,
                    help="wall time per shard micro-batch flush",
                    buckets=obs.SECONDS_BUCKETS, shard=shard)

    def _execute(self, shard: int, run: List[_Request]) -> None:
        """One shard call: a run of lookups, or one insert or delete."""
        request = run[0]
        try:
            if request.kind == "lookup":
                answers = self.cam.search_shard(shard,
                                                [r.key for r in run])
            elif request.kind == "insert":
                words, addresses = request.parts[shard]
                answers = [self.cam.update_shard(shard, words,
                                                 addresses=addresses)]
            else:
                answers = [self.cam.delete_shard(shard, request.key)]
        except ShardFailedError as exc:
            for request in run:
                request.degraded = str(exc)
            return
        except CLIENT_ERRORS as exc:
            for request in run:
                request.error = str(exc)
            return
        for request, answer in zip(run, answers):
            request.answers[shard] = answer

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _resolve(self, request: _Request) -> None:
        """Merge a flushed request's per-shard answers and finish it."""
        if request.error is not None:
            self._finish(request, "error", error=request.error)
            return
        answers = list(request.answers.values())
        result = stats = None
        if request.kind == "insert":
            stats = UpdateStats(
                words=sum(s.words for s in answers),
                beats=max((s.beats for s in answers), default=0),
                cycles=max((s.cycles for s in answers), default=0),
            )
        elif answers:  # else every shard failed: _finish answers a miss
            result = merge_results(request.key, answers)
        self._finish(request, "shard_failed" if request.degraded else "ok",
                     result=result, stats=stats, error=request.degraded)

    def _finish(self, request: _Request, status: str,
                result: Optional[SearchResult] = None,
                stats: Optional[UpdateStats] = None,
                error: Optional[str] = None) -> None:
        latency = asyncio.get_running_loop().time() - request.admitted_t
        self.stats.completed += 1
        if status == "ok":
            self.stats.ok += 1
        elif status == "timeout":
            self.stats.timeouts += 1
            obs.inc("svc_timeouts_total",
                    help="requests expired before dispatch",
                    kind=request.kind)
        elif status == "shard_failed":
            self.stats.shard_failures += 1
        else:
            self.stats.client_errors += 1
        obs.inc("svc_requests_total", help="service requests by outcome",
                kind=request.kind, status=status)
        obs.observe("svc_request_latency_seconds", latency,
                    help="admission-to-completion latency",
                    buckets=obs.SECONDS_BUCKETS, kind=request.kind)
        if (result is None and request.kind != "insert"
                and status in ("timeout", "shard_failed")):
            # Degrade to a miss in the CAM's own result encoding.
            result = merge_results(request.key, [],
                                   self.cam.config.block.encoding)
        if not request.future.done():  # caller may have been cancelled
            request.future.set_result(ServiceResponse(
                kind=request.kind,
                status=status,
                result=result,
                stats=stats,
                shards=tuple(sorted(request.answers)),
                latency_s=latency,
                error=error,
            ))
        self._track_done()
