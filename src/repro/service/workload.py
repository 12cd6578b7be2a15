"""Synthetic traffic driver for the sharded CAM service.

Powers ``python -m repro serve-demo``, the CI service-smoke job and the
shard-scaling benchmark: a reproducible mixed lookup/insert/delete
workload executed by concurrent client tasks against a
:class:`~repro.service.scheduler.CamService`, summarised into a
:class:`WorkloadReport` (outcome counts, latency percentiles,
throughput, per-shard health).

Also home to :class:`FaultyBackend`, the fault-injection session proxy
the failure-isolation demo and tests use to poison one shard mid-run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import UnitConfig, unit_for_entries
from repro.core.types import CamType
from repro.errors import ConfigError, SimulationError
from repro.service.scheduler import CamService, ServiceResponse
from repro.service.sharded import ShardedCam


class FaultyBackend:
    """Session proxy that injects a fault after ``fail_after`` ops.

    Wraps a real session and forwards everything; once the programmed
    operation count is reached the selected failure ``mode`` kicks in:

    - ``"wedge"`` (default, the original behaviour) -- every further
      transaction raises :class:`SimulationError` forever; the sharded
      layer poisons the shard, a replica set fences the replica.
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
            words = list(words)
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


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic run (all knobs CLI-settable)."""

    requests: int = 2000
    clients: int = 8
    lookup_fraction: float = 0.75
    delete_fraction: float = 0.05
    insert_batch_max: int = 8
    hot_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.clients < 1:
            raise ConfigError(f"clients must be >= 1, got {self.clients}")
        if not 0 <= self.lookup_fraction + self.delete_fraction <= 1:
            raise ConfigError("lookup+delete fractions must be within [0, 1]")


def latency_percentile(latencies_s: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``latencies_s`` (0.0 when empty)."""
    if not latencies_s:
        return 0.0
    ordered = sorted(latencies_s)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class WorkloadReport:
    """Outcome summary of one synthetic service run."""

    requests: int = 0
    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    hits: int = 0
    ok: int = 0
    timeouts: int = 0
    shard_failures: int = 0
    client_errors: int = 0
    rejected: int = 0
    words_stored: int = 0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    shards: int = 0
    poisoned_shards: List[int] = field(default_factory=list)
    max_queue_depth: int = 0
    mean_batch_occupancy: float = 0.0
    simulated_cycles: int = 0
    replicas: int = 1
    repairs_completed: int = 0
    repairs_failed: int = 0
    failed_replicas: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def render(self) -> str:
        lines = [
            f"requests          : {self.requests} "
            f"({self.lookups} lookups, {self.inserts} inserts, "
            f"{self.deletes} deletes)",
            f"outcomes          : {self.ok} ok, {self.timeouts} timeout, "
            f"{self.shard_failures} shard_failed, "
            f"{self.client_errors} error, {self.rejected} rejected",
            f"hit rate          : "
            f"{self.hits / self.lookups:.3f}" if self.lookups else
            "hit rate          : n/a",
            f"stored words      : {self.words_stored}",
            f"wall time         : {self.wall_s:.3f} s "
            f"({self.throughput_rps:,.0f} req/s)",
            "latency p50/p95/p99: " + " / ".join(
                f"{latency_percentile(self.latencies_s, q) * 1e3:.2f}"
                for q in (0.50, 0.95, 0.99)) + " ms",
            f"batching          : mean occupancy "
            f"{self.mean_batch_occupancy:.1f} req/flush, "
            f"max queue depth {self.max_queue_depth}",
            f"shards            : {self.shards} total, "
            f"poisoned {self.poisoned_shards or 'none'}",
            f"simulated cycles  : {self.simulated_cycles}",
        ]
        if self.replicas > 1:
            lines.append(
                f"replication       : {self.replicas} replicas/shard, "
                f"{self.repairs_completed} repairs completed, "
                f"{self.repairs_failed} failed, degraded replicas "
                f"{self.failed_replicas or 'none'}"
            )
        return "\n".join(lines)


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
    replica_factory = None
    if poison_shard is not None:
        from repro.core.batch import open_session

        if replicas > 1:
            def replica_factory(shard: int, replica: int, cfg: UnitConfig):
                session = open_session(
                    cfg, engine=engine,
                    name=f"svc.shard{shard}.r{replica}",
                    **session_kwargs,
                )
                if shard == poison_shard and replica == 0:
                    return FaultyBackend(session, poison_after,
                                         mode=fault_mode,
                                         fail_ops=fail_ops)
                return session
        else:
            def factory(index: int, cfg: UnitConfig):
                session = open_session(cfg, engine=engine,
                                       name=f"svc.shard{index}",
                                       **session_kwargs)
                if index == poison_shard:
                    return FaultyBackend(session, poison_after,
                                         mode=fault_mode,
                                         fail_ops=fail_ops)
                return session

    return ShardedCam(config, shards=shards, policy=policy, engine=engine,
                      name="svc", replicas=replicas,
                      session_factory=factory,
                      replica_factory=replica_factory, **session_kwargs)


async def drive_service(service: CamService,
                        spec: WorkloadSpec) -> WorkloadReport:
    """Run the synthetic workload against a started service."""
    cam = service.cam
    width = cam.config.data_width
    key_space = min(1 << width, 1 << 20)
    hot_keys = max(1, int(key_space * 0.001))
    capacity_budget = int(cam.capacity * 0.6)
    report = WorkloadReport(shards=cam.num_shards)
    stored_words = 0
    lock = asyncio.Lock()

    def account(response: ServiceResponse) -> None:
        report.latencies_s.append(response.latency_s)
        if response.status == "ok":
            report.ok += 1
        elif response.status == "timeout":
            report.timeouts += 1
        elif response.status == "shard_failed":
            report.shard_failures += 1
        else:
            report.client_errors += 1

    async def client(client_id: int, operations: int) -> None:
        nonlocal stored_words
        rng = np.random.default_rng(spec.seed * 7919 + client_id)

        def draw_key() -> int:
            if rng.random() < spec.hot_fraction:
                return int(rng.integers(0, hot_keys))
            return int(rng.integers(0, key_space))

        for _ in range(operations):
            roll = rng.random()
            if roll < spec.lookup_fraction or stored_words >= capacity_budget:
                response = await service.lookup(draw_key())
                report.lookups += 1
                if response.ok and response.result.hit:
                    report.hits += 1
            elif roll < spec.lookup_fraction + spec.delete_fraction:
                response = await service.delete(draw_key())
                report.deletes += 1
            else:
                count = int(rng.integers(1, spec.insert_batch_max + 1))
                words = [draw_key() for _ in range(count)]
                async with lock:
                    stored_words += count
                response = await service.insert(words)
                report.inserts += 1
                if response.ok:
                    report.words_stored += response.stats.words
            account(response)
            report.requests += 1

    per_client = max(1, spec.requests // spec.clients)
    started = time.perf_counter()
    await asyncio.gather(*[
        client(index, per_client) for index in range(spec.clients)
    ])
    report.wall_s = time.perf_counter() - started
    report.poisoned_shards = list(cam.poisoned_shards)
    report.max_queue_depth = service.stats.max_queue_depth
    report.mean_batch_occupancy = service.stats.mean_batch_occupancy
    report.simulated_cycles = cam.cycle
    report.replicas = getattr(cam, "num_replicas", 1)
    report.repairs_completed = service.stats.repairs_completed
    report.repairs_failed = service.stats.repairs_failed
    report.failed_replicas = {
        shard: list(failed)
        for shard, session in enumerate(cam.sessions)
        if (failed := getattr(session, "failed_replicas", ()))
    }
    return report


def run_demo_workload(
    cam: ShardedCam,
    spec: Optional[WorkloadSpec] = None,
    *,
    max_batch: int = 64,
    max_delay_s: float = 0.002,
    queue_depth: int = 1024,
    request_timeout_s: float = 5.0,
    auto_repair: bool = False,
) -> WorkloadReport:
    """Blocking entry point: start a service, drive it, report."""
    spec = spec or WorkloadSpec()

    async def _run() -> WorkloadReport:
        async with CamService(
            cam,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            queue_depth=queue_depth,
            request_timeout_s=request_timeout_s,
            auto_repair=auto_repair,
        ) as service:
            return await drive_service(service, spec)

    return asyncio.run(_run())
