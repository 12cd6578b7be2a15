"""One traffic driver for the CAM service, in process or over the wire.

:func:`drive` powers ``python -m repro serve-demo`` and ``python -m
repro loadgen``, the CI smoke jobs and the service benchmarks. Its
target is a started :class:`~repro.service.scheduler.CamService` or a
:class:`~repro.net.client.CamClient`; both answer ``lookup_many``,
``insert`` and ``delete`` with the same
:class:`~repro.service.scheduler.ServiceResponse`. The driver stores
the Table IX seed set (:func:`table09_probe_stream`) into an empty CAM,
then issues exactly :attr:`TrafficSpec.requests` operations and sums
them up in a :class:`TrafficReport`, which renders the run and builds
its ``repro.bench.manifest``.

Also home to :func:`demo_cam`, the demo service's backing CAM, and
:class:`FaultyBackend`, the fault-injection session proxy the
failure-isolation demo and tests use to poison one shard mid-run.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import UnitConfig, unit_for_entries
from repro.core.types import CamType
from repro.errors import (
    ConfigError,
    NetError,
    ServiceError,
    SimulationError,
)
from repro.service.scheduler import CamService, ServiceResponse
from repro.service.sharded import ShardedCam

#: Words per INSERT while storing the seed set (one wire frame each).
SEED_BATCH = 64
#: Share of the CAM's capacity the Table IX seed set fills (the
#: stream's own default): enough stored neighbours for lookups to hit,
#: with room left for the mix's inserts.
SEED_FILL = 0.6
#: Share of capacity past which the mix's inserts turn into lookups.
#: Hash sharding fills shards unevenly, so this headroom keeps every
#: shard below its own capacity and no insert fails with a
#: CapacityError, even on the small CAMs of the tests.
INSERT_BUDGET = 0.7
#: Inserted words are drawn from ``[0, KEY_SPACE)``: wide enough that
#: they rarely repeat, so the hash policy spreads them evenly.
KEY_SPACE = 1 << 20
#: The ``serve-demo`` mix: 75% lookups, 20% inserts, 5% deletes.
DEMO_MIX = {"insert_fraction": 0.20, "delete_fraction": 0.05}


class FaultyBackend:
    """Session proxy that injects a fault after ``fail_after`` ops.

    Wraps a real session and forwards everything; once the programmed
    operation count is reached the selected failure ``mode`` kicks in:

    - ``"wedge"`` (default, the original behaviour) -- every further
      transaction raises :class:`SimulationError` forever; the shard's
      replica set fences the replica (and the shard fails with it when
      no healthy peer is left).
    - ``"crash"`` -- transactions raise for a window of ``fail_ops``
      operations, then the backend recovers (a rebooted process: its
      *content is stale*, so it must be rebuilt from a peer before it
      can serve again -- exactly what the repair path does).
    - ``"diverge"`` -- updates silently drop their words while
      reporting success; nothing raises. Only the replica set's
      content-hash divergence beats catch this one.

    Snapshot/restore/reset pass through untouched (they ride
    ``__getattr__``), so a wedged or crashed replica can still be
    rebuilt from a donor snapshot.
    """

    MODES = ("wedge", "crash", "diverge")

    def __init__(self, session, fail_after: int, *, mode: str = "wedge",
                 fail_ops: int = 25) -> None:
        if mode not in self.MODES:
            raise ConfigError(
                f"fault mode must be one of {self.MODES}, got {mode!r}"
            )
        if fail_ops < 1:
            raise ConfigError(f"fail_ops must be >= 1, got {fail_ops}")
        self._session = session
        self._fail_after = fail_after
        self._mode = mode
        self._fail_ops = fail_ops
        self._ops = 0

    def heal(self) -> None:
        """Clear the injected fault (models swapping in a healthy node).

        The backend's *content* stays whatever the fault left behind, so
        a wedged/crashed replica still needs a rebuild before serving.
        """
        self._fail_after = float("inf")

    def _faulting(self) -> bool:
        if self._ops <= self._fail_after:
            return False
        if self._mode == "crash":
            return self._ops <= self._fail_after + self._fail_ops
        return True

    def _tick(self) -> None:
        self._ops += 1
        if self._mode != "diverge" and self._faulting():
            raise SimulationError(
                f"injected {self._mode} fault after {self._fail_after} ops"
            )

    def update(self, words, group=None):
        self._tick()
        if self._mode == "diverge" and self._faulting():
            # Silently lose the write but report plausible stats: the
            # replica now disagrees without ever raising.
            per_beat = self._session.words_per_beat
            beats = -(-len(words) // per_beat)
            from repro.core.session import UpdateStats

            return UpdateStats(
                words=len(words), beats=beats,
                cycles=beats + self._session.update_latency - 1,
            )
        return self._session.update(words, group=group)

    def search(self, keys, groups=None):
        self._tick()
        return self._session.search(keys, groups=groups)

    def delete(self, key):
        self._tick()
        return self._session.delete(key)

    def __getattr__(self, name):
        return getattr(self._session, name)


def table09_probe_stream(
    capacity: int,
    *,
    seed: int = 3,
    num_vertices: int = 2000,
    num_edges: int = 12_000,
    triangle_fraction: float = 0.4,
    fill: float = 0.6,
    max_probes: int = 16_000,
):
    """The Table IX adjacency-intersection workload as a CAM stream.

    Hub adjacency sets of a power-law graph are stored in the CAM
    (up to ``fill`` of ``capacity`` distinct neighbor ids), then the
    probe sides of sampled edges stream through as membership lookups
    -- each hit is one intersection contribution, exactly what the
    triangle-counting pipeline asks the CAM per edge. Shared by the
    shard-scaling benchmark, the network-throughput benchmark and the
    ``loadgen`` CLI, so every layer is measured on the same stream.

    Returns ``(stored, probes)`` lists of ints.
    """
    from repro.graph import power_law

    graph = power_law(num_vertices, num_edges,
                      triangle_fraction=triangle_fraction, seed=seed)
    order = sorted(range(graph.num_vertices), key=graph.degree,
                   reverse=True)
    budget = max(1, int(capacity * fill))
    stored, seen = [], set()
    for hub in order:
        for neighbor in graph.neighbors(hub):
            value = int(neighbor)
            if value not in seen:
                seen.add(value)
                stored.append(value)
                if len(stored) >= budget:
                    break
        if len(stored) >= budget:
            break
    probes = []
    for u, v in graph.edges():
        side = u if graph.degree(u) <= graph.degree(v) else v
        probes.extend(int(w) for w in graph.neighbors(side))
        if len(probes) >= max_probes:
            break
    return stored, probes


def demo_cam(
    *,
    entries_per_shard: int = 512,
    shards: int = 4,
    block_size: int = 64,
    data_width: int = 32,
    engine: str = "batch",
    policy: str = "hash",
    replicas: int = 1,
    poison_shard: Optional[int] = None,
    poison_after: int = 50,
    fault_mode: Optional[str] = None,
    fail_ops: int = 25,
    **session_kwargs,
) -> ShardedCam:
    """Build the demo service's backing :class:`ShardedCam`.

    ``poison_shard`` wraps that shard in a :class:`FaultyBackend` that
    blows up after ``poison_after`` operations -- the failure-isolation
    demonstration. With ``replicas > 1`` only that shard's *preferred*
    replica is wrapped, so the shard keeps serving through its healthy
    peer and the repair path has a donor to rebuild from; the default
    fault mode then becomes ``"crash"`` (the replica recovers and can
    be reinstated) instead of ``"wedge"``.
    """
    config = unit_for_entries(
        entries_per_shard,
        block_size=min(block_size, entries_per_shard),
        data_width=data_width,
        bus_width=512,
        cam_type=CamType.BINARY,
        default_groups=1,
    )
    if fault_mode is None:
        fault_mode = "wedge" if replicas == 1 else "crash"
    factory = None
    if poison_shard is not None:
        from repro.core.batch import open_session

        def factory(shard: int, replica: int, cfg: UnitConfig):
            name = f"svc.shard{shard}" + (f".r{replica}" if replicas > 1
                                          else "")
            session = open_session(cfg, engine=engine, name=name,
                                   **session_kwargs)
            if shard == poison_shard and replica == 0:
                return FaultyBackend(session, poison_after,
                                     mode=fault_mode, fail_ops=fail_ops)
            return session

    return ShardedCam(config, shards=shards, policy=policy, engine=engine,
                      name="svc", replicas=replicas,
                      session_factory=factory, **session_kwargs)


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one :func:`drive` run.

    An operation is a lookup of ``batch`` probe keys, an insert of 1 to
    ``insert_words`` fresh words, or a one-key delete; inserts and
    deletes take the shares ``insert_fraction`` and ``delete_fraction``
    and lookups the rest. The loop is open when ``rate`` is set
    (operations arrive at ``rate``/s, at most ``concurrency`` in flight)
    and closed over ``concurrency`` workers otherwise. ``kill_after``
    severs a :class:`~repro.net.client.CamClient`'s connections once,
    after that many answered operations.
    """

    requests: int = 2000
    concurrency: int = 16
    rate: Optional[float] = None
    batch: int = 1
    insert_fraction: float = 0.0
    delete_fraction: float = 0.0
    insert_words: int = 8
    kill_after: Optional[int] = None
    seed: int = 3

    def __post_init__(self) -> None:
        for name in ("requests", "concurrency", "batch", "insert_words"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {self}")
        if self.rate is not None and self.rate <= 0:
            raise ConfigError(f"open-loop rate must be > 0, got {self}")
        if (min(self.insert_fraction, self.delete_fraction) < 0
                or self.insert_fraction + self.delete_fraction > 1):
            raise ConfigError("insert+delete fractions must be within [0, 1]")
        if self.kill_after is not None and self.kill_after < 0:
            raise ConfigError(f"kill_after must be >= 0, got {self}")


def latency_percentile(latencies_s: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``latencies_s`` (0.0 when empty)."""
    if not latencies_s:
        return 0.0
    ordered = sorted(latencies_s)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: ServiceResponse status -> the TrafficReport counter it bumps.
_OUTCOMES = {"ok": "ok", "timeout": "timeouts",
             "shard_failed": "shard_failures", "error": "errors"}


@dataclass
class TrafficReport:
    """Outcome of one :func:`drive` run.

    Each operation lands in exactly one of ``ok``, ``timeouts``,
    ``shard_failures`` (the first non-ok key status decides) and
    ``errors`` (status ``"error"``, or the call raised a
    :class:`~repro.errors.NetError` or
    :class:`~repro.errors.ServiceError`). ``summary`` is
    the target's stats document after the run: its ``service`` and
    ``cam`` sections (plus ``server`` over the wire).
    """

    requests: int = 0
    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    keys_probed: int = 0
    hits: int = 0
    ok: int = 0
    timeouts: int = 0
    shard_failures: int = 0
    errors: int = 0
    stored_words: int = 0
    words_inserted: int = 0
    retries: int = 0
    kills: int = 0
    offered_rps: float = 0.0
    seed_s: float = 0.0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def achieved_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def record(self, kind: str, keys: List[int],
               responses: Optional[List[ServiceResponse]],
               latency_s: float) -> None:
        """Count one operation (``responses`` is None if it raised)."""
        self.requests += 1
        if kind == "lookup":
            self.lookups += 1
            self.keys_probed += len(keys)
        elif kind == "insert":
            self.inserts += 1
        else:
            self.deletes += 1
        if responses is None:
            self.errors += 1
            return
        self.latencies_s.append(latency_s)
        status = next((r.status for r in responses if not r.ok), "ok")
        counter = _OUTCOMES[status]
        setattr(self, counter, getattr(self, counter) + 1)
        if kind == "lookup":
            self.hits += sum(1 for r in responses if r.ok and r.result.hit)
        elif kind == "insert" and responses[0].stats is not None:
            self.words_inserted += responses[0].stats.words

    def render(self) -> str:
        service = self.summary["service"]
        cam = self.summary["cam"]
        loop = (f"open loop, offered {self.offered_rps:,.0f} req/s"
                if self.offered_rps else "closed loop")
        lines = [
            f"seed set          : {self.stored_words} words stored "
            f"in {self.seed_s:.3f} s",
            f"requests          : {self.requests} "
            f"({self.lookups} lookups of {self.keys_probed} keys, "
            f"{self.inserts} inserts, {self.deletes} deletes; {loop})",
            f"outcomes          : {self.ok} ok, {self.timeouts} timeout, "
            f"{self.shard_failures} shard_failed, {self.errors} error",
            f"hits / inserted   : {self.hits} of {self.keys_probed} keys, "
            f"{self.words_inserted} words",
            f"retries / kills   : {self.retries} / {self.kills}",
            f"wall time         : {self.wall_s:.3f} s "
            f"({self.achieved_rps:,.0f} req/s achieved)",
            "latency p50/p95/p99: " + " / ".join(
                f"{latency_percentile(self.latencies_s, q) * 1e3:.2f}"
                for q in (0.50, 0.95, 0.99)) + " ms",
            f"batching          : mean occupancy "
            f"{service['mean_batch_occupancy']:.1f} req/flush, "
            f"max queue depth {service['max_queue_depth']}",
            f"shards            : {cam['shards']} total, "
            f"poisoned {cam['poisoned_shards'] or 'none'}",
            f"simulated cycles  : {cam['cycle']}",
        ]
        if cam["replicas"] > 1:
            lines.append(
                f"replication       : {cam['replicas']} replicas/shard, "
                f"{service['repairs_completed']} repairs completed, "
                f"{service['repairs_failed']} failed, degraded replicas "
                f"{cam['failed_replicas'] or 'none'}"
            )
        return "\n".join(lines)

    def manifest(self, spec: TrafficSpec, name: str,
                 config: Optional[dict] = None) -> dict:
        """A schema-valid ``repro.bench.manifest`` for this run.

        ``config`` records the target's settings beside the spec;
        ``extra`` holds this report's counts over the summary's
        ``cam`` and ``service`` fields.
        """
        counts = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("seed_s", "wall_s", "latencies_s",
                                    "summary")}
        counts["achieved_rps"] = self.achieved_rps
        for q in (50, 95, 99):
            counts[f"latency_p{q}_ms"] = latency_percentile(
                self.latencies_s, q / 100) * 1e3
        spec_config = {f.name: getattr(spec, f.name) for f in fields(spec)}
        return obs.build_manifest(
            name=name,
            config={**(config or {}), **spec_config},
            timings={"seed_s": self.seed_s, "wall_s": self.wall_s},
            metrics=obs.metrics().snapshot(),
            extra={**self.summary["cam"], **self.summary["service"],
                   **counts},
        )


async def _stats_doc(target) -> dict:
    if isinstance(target, CamService):
        return target.stats_doc()
    return await target.stats()


def _plan(spec: TrafficSpec, probes: Sequence[int],
          room: int) -> List[Tuple[str, List[int]]]:
    """The run's operations, drawn up front from ``spec.seed``.

    Inserts that would take the CAM past ``room`` more words turn into
    lookups; deletes remove words the run inserted (probe keys until
    there are some).
    """
    rng = np.random.default_rng(spec.seed)
    ops: List[Tuple[str, List[int]]] = []
    inserted: List[int] = []
    cursor = 0
    for roll in rng.random(spec.requests):
        if roll < spec.insert_fraction:
            count = int(rng.integers(1, spec.insert_words + 1))
            if count <= room:
                words = rng.integers(0, KEY_SPACE, count).tolist()
                room -= count
                inserted.extend(words)
                ops.append(("insert", words))
                continue
        elif roll < spec.insert_fraction + spec.delete_fraction:
            pool = inserted or probes
            ops.append(("delete", [int(pool[rng.integers(len(pool))])]))
            continue
        ops.append(("lookup", [int(probes[(cursor + j) % len(probes)])
                               for j in range(spec.batch)]))
        cursor += spec.batch
    return ops


async def drive(target, spec: TrafficSpec, *,
                probes: Optional[Sequence[int]] = None) -> TrafficReport:
    """Seed ``target`` if empty, then run ``spec`` against it.

    ``target`` is a started :class:`CamService` or a connected
    :class:`~repro.net.client.CamClient`. The seed set and, unless
    ``probes`` is given, the lookup keys come from
    :func:`table09_probe_stream` over the target's capacity. The
    client's retry and kill counters are diffed around the run.
    """
    if spec.kill_after is not None and isinstance(target, CamService):
        raise ConfigError("kill_after needs a CamClient target")
    cam = (await _stats_doc(target))["cam"]
    stored, table_probes = table09_probe_stream(
        cam["capacity"], seed=spec.seed, fill=SEED_FILL)
    probes = table_probes if probes is None else probes
    report = TrafficReport()
    retries = getattr(target, "retries", 0)
    kills = getattr(target, "kills", 0)

    started = time.perf_counter()
    if cam["occupancy"] == 0:
        for start in range(0, len(stored), SEED_BATCH):
            response = await target.insert(stored[start:start + SEED_BATCH])
            if response.stats is not None:
                report.stored_words += response.stats.words
    report.seed_s = time.perf_counter() - started
    room = (int(cam["capacity"] * INSERT_BUDGET) - cam["occupancy"]
            - report.stored_words)
    ops = _plan(spec, probes, room)

    loop = asyncio.get_running_loop()
    answered = 0
    kill_at = None if spec.kill_after is None else max(1, spec.kill_after)

    async def fire(kind: str, keys: List[int]) -> None:
        nonlocal answered
        sent = loop.time()
        try:
            if kind == "lookup":
                responses = await target.lookup_many(keys)
            elif kind == "insert":
                responses = [await target.insert(keys)]
            else:
                responses = [await target.delete(keys[0])]
        except (NetError, ServiceError):
            report.record(kind, keys, None, 0.0)
            return
        report.record(kind, keys, responses, loop.time() - sent)
        answered += 1
        if answered == kill_at:
            target.kill_connections()

    started = time.perf_counter()
    if spec.rate is None:
        pending = iter(ops)

        async def worker() -> None:
            for op in pending:
                await fire(*op)

        await asyncio.gather(*[worker() for _ in range(spec.concurrency)])
    else:
        limiter = asyncio.Semaphore(spec.concurrency)

        async def fire_limited(op) -> None:
            async with limiter:
                await fire(*op)

        tasks = []
        t0 = loop.time()
        for index, op in enumerate(ops):
            delay = t0 + index / spec.rate - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire_limited(op)))
        await asyncio.gather(*tasks)
        report.offered_rps = spec.rate
    report.wall_s = time.perf_counter() - started
    report.retries = getattr(target, "retries", 0) - retries
    report.kills = getattr(target, "kills", 0) - kills
    report.summary = await _stats_doc(target)
    return report
