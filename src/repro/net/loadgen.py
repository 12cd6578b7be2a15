"""Open- and closed-loop load generation against a CAM server.

Drives the Table IX adjacency-probe stream (the same workload the
shard-scaling and network-throughput benchmarks use) through a
:class:`~repro.net.client.CamClient`:

- **closed loop** -- ``concurrency`` workers each keep exactly one
  request outstanding; throughput is whatever the server sustains,
  latency excludes queueing you didn't create. The classic
  load-tester mode.
- **open loop** -- requests *arrive* on a fixed schedule of ``rate``
  req/s regardless of completions (up to ``concurrency`` in flight as
  a memory guard); latency includes the queueing a real user would
  see when the server falls behind the arrival process.

The run is summarised as a :class:`LoadReport` and can be emitted as a
``repro.bench.manifest`` (:meth:`LoadReport.manifest`) with achieved
req/s and latency percentiles -- the artefact the CI ``net-smoke`` job
uploads. A ``kill_after`` chaos knob severs every client connection
once, mid-run, to prove retry-with-backoff rides through connection
loss without losing or duplicating updates.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.errors import ConfigError, NetError
from repro.net.client import CamClient
from repro.service.workload import latency_percentile, table09_probe_stream

#: Words per INSERT frame during the store phase.
SEED_BATCH = 64


@dataclass(frozen=True)
class LoadgenSpec:
    """Shape of one load-generation run (all knobs CLI-settable)."""

    mode: str = "closed"
    requests: int = 2000
    concurrency: int = 16
    rate: float = 2000.0
    batch: int = 1
    pool_size: int = 1
    pipelined: bool = True
    kill_after: Optional[int] = None
    seed: int = 3

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ConfigError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ConfigError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.mode == "open" and self.rate <= 0:
            raise ConfigError(
                f"open-loop rate must be > 0 req/s, got {self.rate}"
            )
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.kill_after is not None and self.kill_after < 0:
            raise ConfigError(
                f"kill_after must be >= 0, got {self.kill_after}"
            )


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str = "closed"
    requests: int = 0
    keys_probed: int = 0
    ok: int = 0
    hits: int = 0
    degraded: int = 0
    errors: int = 0
    retries: int = 0
    kills: int = 0
    stored_words: int = 0
    seed_s: float = 0.0
    wall_s: float = 0.0
    offered_rps: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def achieved_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def render(self) -> str:
        lines = [
            f"mode              : {self.mode}"
            + (f" (offered {self.offered_rps:,.0f} req/s)"
               if self.mode == "open" else ""),
            f"seed phase        : {self.stored_words} words stored "
            f"in {self.seed_s:.3f} s",
            f"probe requests    : {self.requests} "
            f"({self.keys_probed} keys)",
            f"outcomes          : {self.ok} ok, {self.degraded} degraded, "
            f"{self.errors} errors",
            f"hit rate          : "
            + (f"{self.hits / self.keys_probed:.3f}"
               if self.keys_probed else "n/a"),
            f"retries / kills   : {self.retries} / {self.kills}",
            f"wall time         : {self.wall_s:.3f} s "
            f"({self.achieved_rps:,.0f} req/s achieved)",
            "latency p50/p95/p99: " + " / ".join(
                f"{latency_percentile(self.latencies_s, q) * 1e3:.2f}"
                for q in (0.50, 0.95, 0.99)) + " ms",
        ]
        return "\n".join(lines)

    def manifest(self, spec: LoadgenSpec, name: str = "net_loadgen") -> dict:
        """A schema-valid ``repro.bench.manifest`` for this run."""
        latencies = self.latencies_s
        return obs.build_manifest(
            name=name,
            config={
                "mode": spec.mode,
                "requests": spec.requests,
                "concurrency": spec.concurrency,
                "rate": spec.rate,
                "batch": spec.batch,
                "pool_size": spec.pool_size,
                "pipelined": spec.pipelined,
                "kill_after": spec.kill_after,
                "seed": spec.seed,
            },
            timings={"seed_s": self.seed_s, "wall_s": self.wall_s},
            metrics=obs.metrics().snapshot(),
            extra={
                "achieved_rps": self.achieved_rps,
                "offered_rps": self.offered_rps,
                "ok": self.ok,
                "degraded": self.degraded,
                "errors": self.errors,
                "retries": self.retries,
                "kills": self.kills,
                "hits": self.hits,
                "keys_probed": self.keys_probed,
                "stored_words": self.stored_words,
                "latency_p50_ms": latency_percentile(latencies, 0.50) * 1e3,
                "latency_p95_ms": latency_percentile(latencies, 0.95) * 1e3,
                "latency_p99_ms": latency_percentile(latencies, 0.99) * 1e3,
            },
        )


async def run_loadgen(
    client: CamClient,
    spec: LoadgenSpec,
    *,
    stored: Optional[List[int]] = None,
    probes: Optional[List[int]] = None,
    capacity: Optional[int] = None,
) -> LoadReport:
    """Seed the server CAM, then drive the probe stream through it.

    ``stored``/``probes`` default to :func:`table09_probe_stream` over
    the server's reported capacity. The client's retry counters are
    diffed around the run, so :attr:`LoadReport.retries` counts only
    this run's retries.
    """
    if stored is None or probes is None:
        if capacity is None:
            capacity = int((await client.stats())["cam"]["capacity"])
        generated_stored, generated_probes = table09_probe_stream(
            capacity, seed=spec.seed
        )
        stored = stored if stored is not None else generated_stored
        probes = probes if probes is not None else generated_probes

    report = LoadReport(mode=spec.mode)
    retries_before = client.retries
    kills_before = client.kills

    # ------------------------------------------------------------- seed
    seed_started = time.perf_counter()
    occupancy = int((await client.stats())["cam"]["occupancy"])
    if occupancy == 0:
        for start in range(0, len(stored), SEED_BATCH):
            response = await client.insert(stored[start:start + SEED_BATCH])
            if response.status == "ok":
                report.stored_words += response.stats.words
    report.seed_s = time.perf_counter() - seed_started

    # ---------------------------------------------------------- probes
    total = spec.requests
    batches = [
        [probes[(index * spec.batch + j) % len(probes)]
         for j in range(spec.batch)]
        for index in range(total)
    ]
    completed = 0
    kill_pending = spec.kill_after is not None

    async def fire(batch: List[int]) -> None:
        nonlocal completed, kill_pending
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            responses = await client.lookup_many(batch)
        except NetError:
            report.errors += 1
            report.requests += 1
            report.keys_probed += len(batch)
            return
        report.latencies_s.append(loop.time() - started)
        report.requests += 1
        report.keys_probed += len(batch)
        for response in responses:
            if response.status == "ok":
                report.hits += int(response.result.hit)
            else:
                report.degraded += 1
        if all(r.status == "ok" for r in responses):
            report.ok += 1
        completed += 1
        if kill_pending and completed >= spec.kill_after:
            kill_pending = False
            client.kill_connections()

    started = time.perf_counter()
    if spec.mode == "closed":
        queue: "asyncio.Queue[Optional[List[int]]]" = asyncio.Queue()
        for batch in batches:
            queue.put_nowait(batch)
        for _ in range(spec.concurrency):
            queue.put_nowait(None)

        async def worker() -> None:
            while True:
                batch = await queue.get()
                if batch is None:
                    return
                await fire(batch)

        await asyncio.gather(*[worker()
                               for _ in range(spec.concurrency)])
    else:
        interval = 1.0 / spec.rate
        limiter = asyncio.Semaphore(spec.concurrency)
        tasks = []
        loop = asyncio.get_running_loop()
        t0 = loop.time()

        async def fire_limited(batch: List[int]) -> None:
            async with limiter:
                await fire(batch)

        for index, batch in enumerate(batches):
            target = t0 + index * interval
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire_limited(batch)))
        await asyncio.gather(*tasks)
        report.offered_rps = spec.rate
    report.wall_s = time.perf_counter() - started
    report.retries = client.retries - retries_before
    report.kills = client.kills - kills_before
    return report


def run_loadgen_blocking(
    host: str,
    port: int,
    spec: LoadgenSpec,
    *,
    request_timeout_s: float = 10.0,
    max_retries: int = 5,
) -> LoadReport:
    """Blocking entry point used by ``python -m repro loadgen``."""

    async def _run() -> LoadReport:
        async with CamClient(
            host, port,
            pool_size=spec.pool_size,
            pipelined=spec.pipelined,
            request_timeout_s=request_timeout_s,
            max_retries=max_retries,
        ) as client:
            return await run_loadgen(client, spec)

    return asyncio.run(_run())


__all__ = [
    "LoadReport",
    "LoadgenSpec",
    "run_loadgen",
    "run_loadgen_blocking",
    "table09_probe_stream",
]
