"""Command-line interface: ``dsp-cam`` / ``python -m repro``.

Subcommands:

- ``info``                       -- library and configuration summary
- ``exhibit {fig1,table1,...}``  -- regenerate a paper table/figure
- ``generate-hdl``               -- emit the Verilog templates
- ``demo``                       -- the sample workload (update, search,
  delete); ``--metrics`` dumps the metrics registry and ``--trace-out``
  writes a Chrome trace-event JSON (open in Perfetto)
- ``tc``                         -- run the triangle-counting case study
- ``audit``                      -- differential equivalence check of the
  vectorized batch engine against the cycle-accurate simulator and the
  golden reference model
- ``serve-demo``                 -- drive the sharded async CAM service
  with synthetic concurrent traffic (see ``docs/service.md``)
- ``serve``                      -- put the sharded CAM behind a TCP
  socket (binary protocol, graceful drain on SIGINT/SIGTERM; see
  ``docs/networking.md``)
- ``loadgen``                    -- open/closed-loop load generation
  against a running ``serve`` instance, emitting a benchmark manifest
- ``snapshot``                   -- save a seeded demo CAM's content as a
  versioned snapshot (JSON or compact binary)
- ``restore``                    -- rebuild a CAM from a snapshot file and
  optionally verify the content-hash round-trip
- ``validate-manifest``          -- schema-check a ``BENCH_*.json`` file

``demo``, ``tc``, ``audit`` and ``serve-demo`` accept ``--trace-out
PATH`` to capture their span tree; ``demo``, ``serve-demo`` and
``loadgen`` accept ``--manifest-out PATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro import __version__, obs
from repro.bench.experiments import ALL_EXHIBITS
from repro.core import (
    ENGINES,
    CamSession,
    CamType,
    open_session,
    unit_for_entries,
)
from repro.errors import ReproError
from repro.graph.datasets import dataset_names
from repro.hdlgen import write_project


def _version_string() -> str:
    sha = obs.git_sha()
    suffix = f" (git {sha[:12]})" if sha else ""
    return f"repro {obs.package_version()}{suffix}"


@contextmanager
def _telemetry(args: argparse.Namespace):
    """Fresh telemetry for a command asked to export some (``--metrics``,
    ``--trace-out``, ``--manifest-out``), switched off again on every
    exit path, errors included."""
    if not any(getattr(args, flag, None)
               for flag in ("metrics", "trace_out", "manifest_out")):
        yield
        return
    obs.reset()
    obs.enable(tracing=bool(getattr(args, "trace_out", None)))
    try:
        yield
    finally:
        obs.disable()


def _write_trace(trace_out: Optional[str]) -> None:
    """Dump the global tracer to ``trace_out`` when requested."""
    if not trace_out:
        return
    spans = obs.tracer().write_chrome(trace_out)
    print(f"wrote {spans} spans "
          f"({len(obs.tracer().events)} trace events) to {trace_out}")


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(f"wrote manifest to {path}")


def _add_engine(parser: argparse.ArgumentParser, default: Optional[str],
                **kwargs) -> None:
    parser.add_argument("--engine", choices=list(ENGINES), default=default,
                        **kwargs)


def _add_service_flags(parser: argparse.ArgumentParser,
                       max_delay_ms: float) -> None:
    """Flags ``serve`` and ``serve-demo`` share (the sharded service)."""
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--policy", choices=["hash", "range", "round_robin"],
                        default="hash")
    _add_engine(parser, "batch")
    parser.add_argument("--entries-per-shard", type=int, default=512)
    parser.add_argument("--replicas", type=int, default=1,
                        help="replica sessions per shard (fan-out writes, "
                             "failover reads, live recovery)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="micro-batch size cap per shard")
    parser.add_argument("--max-delay-ms", type=float, default=max_delay_ms,
                        help="max wait to fill a micro-batch")
    parser.add_argument("--timeout-ms", type=float, default=5000.0,
                        help="per-request deadline from admission")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsp-cam",
        description="Configurable DSP-based CAM for FPGAs (DAC 2025) - "
                    "reference reproduction",
    )
    parser.add_argument("--version", action="version",
                        version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print library and model summary")

    exhibit = sub.add_parser("exhibit", help="regenerate a paper exhibit")
    exhibit.add_argument("name", choices=sorted(ALL_EXHIBITS) + ["all"])
    exhibit.add_argument("--max-edges", type=int, default=60_000,
                         help="stand-in graph size cap for table9")

    hdl = sub.add_parser("generate-hdl", help="emit the Verilog templates")
    hdl.add_argument("--out", default="generated_hdl")
    hdl.add_argument("--entries", type=int, default=2048)
    hdl.add_argument("--block-size", type=int, default=128)
    hdl.add_argument("--data-width", type=int, default=32)
    hdl.add_argument("--bus-width", type=int, default=512)

    demo = sub.add_parser(
        "demo", help="run the sample workload (update, search, delete)"
    )
    demo.add_argument("--entries", type=int, default=256)
    demo.add_argument("--groups", type=int, default=2)
    _add_engine(demo, "cycle", help="execution engine (see repro.core.batch)")
    demo.add_argument("--metrics", choices=["prometheus", "json", "both"],
                      default=None,
                      help="print the metrics registry after the run")
    demo.add_argument("--trace-out", default=None, metavar="PATH",
                      help="write a Chrome trace of the run (Perfetto); "
                           "the cycle engine adds its waveform track")
    demo.add_argument("--manifest-out", default=None, metavar="PATH",
                      help="write a BENCH-style run manifest (JSON)")

    tc = sub.add_parser("tc", help="triangle-counting case study")
    tc.add_argument("--dataset", choices=dataset_names() + ["all"],
                    default="all")
    tc.add_argument("--max-edges", type=int, default=60_000)
    tc.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write a Chrome trace of the pipeline (includes a "
                         "functional cross-check on the real CAM)")

    audit = sub.add_parser(
        "audit",
        help="prove the batch engine equivalent to the cycle-accurate CAM",
    )
    audit.add_argument("--entries", type=int, default=128)
    audit.add_argument("--block-size", type=int, default=32)
    audit.add_argument("--data-width", type=int, default=16)
    audit.add_argument("--cam-type", choices=["binary", "ternary", "range"],
                       default="binary")
    audit.add_argument("--groups", type=int, default=2)
    audit.add_argument("--operations", type=int, default=200)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace of the audit run")

    serve = sub.add_parser(
        "serve-demo",
        help="drive the sharded async CAM service with synthetic traffic",
    )
    _add_service_flags(serve, max_delay_ms=2.0)
    serve.add_argument("--requests", type=int, default=2000)
    serve.add_argument("--clients", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--auto-repair", action="store_true",
                       help="run the background repair monitor that "
                            "rebuilds failed replicas with exponential "
                            "backoff")
    serve.add_argument("--poison-shard", type=int, default=None,
                       metavar="INDEX",
                       help="inject a backend fault into this shard to "
                            "demonstrate failure isolation")
    serve.add_argument("--fault-mode",
                       choices=["wedge", "crash", "diverge"], default=None,
                       help="injected fault flavour (default: wedge, or "
                            "crash when --replicas > 1)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace of the run (Perfetto)")
    serve.add_argument("--manifest-out", default=None, metavar="PATH",
                       help="write a BENCH-style run manifest (JSON)")

    serve_net = sub.add_parser(
        "serve",
        help="serve the sharded CAM over TCP (binary wire protocol)",
    )
    serve_net.add_argument("--host", default="127.0.0.1")
    serve_net.add_argument("--port", type=int, default=0,
                           help="TCP port (0 binds an ephemeral port, "
                                "printed at startup)")
    _add_service_flags(serve_net, max_delay_ms=1.0)
    serve_net.add_argument("--max-connections", type=int, default=64)
    serve_net.add_argument("--max-frame-size", type=int,
                           default=None, metavar="BYTES",
                           help="per-frame payload cap (default 4 MiB)")
    serve_net.add_argument("--idle-timeout-s", type=float, default=None,
                           help="close connections idle this long")
    serve_net.add_argument("--max-seconds", type=float, default=None,
                           help="auto-shutdown after this long (CI)")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the Table IX probe stream against a CAM server",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--mode", choices=["closed", "open"],
                         default="closed")
    loadgen.add_argument("--requests", type=int, default=2000)
    loadgen.add_argument("--concurrency", type=int, default=16)
    loadgen.add_argument("--rate", type=float, default=2000.0,
                         help="open-loop arrival rate (req/s)")
    loadgen.add_argument("--batch", type=int, default=1,
                         help="keys per LOOKUP frame")
    loadgen.add_argument("--pool", type=int, default=1,
                         help="client connection pool size")
    loadgen.add_argument("--naive", action="store_true",
                         help="disable pipelining: one request per "
                              "round trip (baseline mode)")
    loadgen.add_argument("--kill-after", type=int, default=None,
                         metavar="N",
                         help="sever every connection once after N "
                              "completed requests (retry/chaos check)")
    loadgen.add_argument("--seed", type=int, default=3)
    loadgen.add_argument("--timeout-s", type=float, default=10.0)
    loadgen.add_argument("--manifest-out", default=None, metavar="PATH",
                         help="write a BENCH-style run manifest (JSON)")

    snapshot = sub.add_parser(
        "snapshot",
        help="build a seeded demo CAM and save its content snapshot",
    )
    snapshot.add_argument("--out", default="cam_snapshot.json",
                          metavar="PATH",
                          help=".json for canonical JSON, anything else "
                               "for the compact binary framing")
    snapshot.add_argument("--entries", type=int, default=256,
                          help="entries per shard")
    snapshot.add_argument("--shards", type=int, default=1)
    _add_engine(snapshot, "batch")
    snapshot.add_argument("--groups", type=int, default=1)
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument("--fill", type=float, default=0.5,
                          help="fraction of capacity to populate")

    restore = sub.add_parser(
        "restore",
        help="load a snapshot into a freshly built CAM and summarise it",
    )
    restore.add_argument("path")
    _add_engine(restore, None,
                help="engine for the rebuilt CAM (default: the engine "
                     "recorded in the snapshot)")
    restore.add_argument("--verify", action="store_true",
                         help="re-snapshot the restored CAM and check the "
                              "content hash round-trips")
    restore.add_argument("--entries", type=int, default=None,
                         help="override target entries (default: the "
                              "geometry recorded in the snapshot)")
    restore.add_argument("--block-size", type=int, default=None,
                         help="override target block size")
    restore.add_argument("--data-width", type=int, default=None,
                         help="override target data width")

    validate = sub.add_parser(
        "validate-manifest",
        help="schema-check a BENCH_*.json benchmark manifest",
    )
    validate.add_argument("path")

    sweep = sub.add_parser("sweep", help="measure a custom size sweep")
    sweep.add_argument("level", choices=["block", "unit"])
    sweep.add_argument("--sizes", default="32,64,128,256",
                       help="comma-separated sizes (cells or entries)")
    sweep.add_argument("--data-width", type=int, default=32)

    vcd = sub.add_parser(
        "vcd", help="run a small traced scenario and dump a VCD waveform"
    )
    vcd.add_argument("--out", default="cam_trace.vcd")
    return parser


def _cmd_info() -> int:
    from repro.fabric import ALVEO_U250
    from repro.fabric.area import provenance as area_note
    from repro.fabric.timing import provenance as timing_note

    print(f"repro {__version__} - DSP-based CAM reproduction (DAC 2025)")
    print(f"target device: {ALVEO_U250.name} "
          f"({ALVEO_U250.capacity.dsp} DSPs, {ALVEO_U250.capacity.lut} LUTs)")
    print(area_note())
    print(timing_note())
    print("exhibits:", ", ".join(sorted(ALL_EXHIBITS)))
    return 0


def _cmd_exhibit(name: str, max_edges: int) -> int:
    names = sorted(ALL_EXHIBITS) if name == "all" else [name]
    for exhibit_name in names:
        builder = ALL_EXHIBITS[exhibit_name]
        if exhibit_name == "table9":
            table = builder(max_edges=max_edges)
        else:
            table = builder()
        print(table.render())
        print()
    return 0


def _cmd_generate_hdl(args: argparse.Namespace) -> int:
    config = unit_for_entries(
        args.entries,
        block_size=args.block_size,
        data_width=args.data_width,
        bus_width=args.bus_width,
    )
    written = write_project(config, args.out)
    for name, path in written.items():
        print(f"wrote {path}")
    print(f"configuration: {config.num_blocks} blocks x "
          f"{config.block.block_size} cells, {config.data_width}-bit data")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """The sample workload: update, search (hits and misses),
    delete-by-content, then search the deleted and a live word."""
    start = time.perf_counter()
    # The cycle engine records its waveform onto the trace's sim track.
    waveform = bool(args.trace_out) and args.engine == "cycle"
    session = open_session(unit_for_entries(
        args.entries, block_size=64, data_width=32,
        default_groups=args.groups, cam_type=CamType.BINARY,
    ), engine=args.engine, trace=waveform)
    print(f"engine: {session.engine_name}")
    words = list(range(100, 100 + min(args.entries // args.groups, 96)))
    session.update(words)
    print(f"stored {len(words)} words in "
          f"{session.last_update_stats.cycles} cycles")
    probes = words[:48] + [10**6, 10**6 + 1]
    hits = sum(result.hit for result in session.search(probes))
    print(f"search of {len(probes)} keys ({hits} hits) took "
          f"{session.last_search_stats.cycles} cycles "
          f"({args.groups} concurrent queries/cycle)")
    print(f"delete {words[0]}: hit={session.delete(words[0]).hit}")
    for probe, result in zip(words[:2], session.search(words[:2])):
        print(f"  search {probe}: hit={result.hit} "
              f"address={result.address}")
    wall_s = time.perf_counter() - start
    if session.trace is not None:
        obs.tracer().add_sim_trace(session.trace)
    _write_trace(args.trace_out)
    if args.metrics or args.manifest_out:
        from repro.core.stats import collect_stats, publish_stats

        if hasattr(session, "unit"):
            publish_stats(collect_stats(session.unit))
    if args.manifest_out:
        _write_manifest(args.manifest_out, obs.build_manifest(
            name="cli_demo",
            config={"entries": args.entries, "groups": args.groups,
                    "engine": args.engine},
            timings={"wall_s": wall_s},
            metrics=obs.metrics().snapshot(),
        ))
    if args.metrics in ("prometheus", "both"):
        print(obs.metrics().to_prometheus(), end="")
    if args.metrics == "both":
        print()
    if args.metrics in ("json", "both"):
        print(obs.metrics().to_json())
    return 0


def _cmd_tc(dataset: str, max_edges: int,
            trace_out: Optional[str] = None) -> int:
    from repro.apps.tc import (
        arithmetic_mean_speedup,
        run_all,
        run_dataset,
        verify_functional_equivalence,
    )
    from repro.graph.datasets import get_dataset

    if dataset == "all":
        rows = run_all(max_edges=max_edges)
    else:
        rows = [run_dataset(dataset, max_edges=max_edges)]
    if trace_out:
        # Drive the real cycle-accurate CAM on sampled edges so the
        # trace shows the full nesting: tc.verify -> tc.intersect ->
        # session.search/update -> unit.* engine spans.
        spec = get_dataset(dataset_names()[0] if dataset == "all" else dataset)
        standin = spec.standin(max_edges=min(max_edges, 4000))
        verified = verify_functional_equivalence(standin.graph, sample_edges=4)
        print(f"functional cross-check on {spec.name}: "
              f"{verified} edges verified on the cycle-accurate CAM")
    print(f"{'dataset':20s} {'edges':>9s} {'triangles':>10s} "
          f"{'ours ms':>9s} {'base ms':>9s} {'speedup':>7s} {'paper':>6s}")
    for row in rows:
        print(f"{row.dataset:20s} {row.edges:9d} {row.triangles:10d} "
              f"{row.cam_ms:9.3f} {row.baseline_ms:9.3f} "
              f"{row.speedup:7.2f} {row.paper_speedup:6.2f}")
    if len(rows) > 1:
        print(f"average speedup: {arithmetic_mean_speedup(rows):.2f} "
              "(paper: 4.92)")
    _write_trace(trace_out)
    return 0


def _cmd_sweep(level: str, sizes_csv: str, data_width: int) -> int:
    from repro.core import measure_block, measure_unit_performance

    sizes = [int(token) for token in sizes_csv.split(",") if token.strip()]
    if level == "block":
        print(f"{'size':>6s} {'upd cy':>6s} {'srch cy':>7s} "
              f"{'LUT':>6s} {'DSP':>6s} {'MHz':>5s}")
        for size in sizes:
            report = measure_block(size, data_width=data_width)
            print(f"{size:6d} {report.update_latency:6d} "
                  f"{report.search_latency:7d} {report.resources.lut:6d} "
                  f"{report.resources.dsp:6d} {report.frequency_mhz:5.0f}")
    else:
        print(f"{'entries':>8s} {'upd cy':>6s} {'srch cy':>7s} "
              f"{'upd Mop/s':>9s} {'srch Mop/s':>10s}")
        for size in sizes:
            report = measure_unit_performance(
                size, block_size=min(128, size), data_width=data_width
            )
            print(f"{size:8d} {report.update_latency:6d} "
                  f"{report.search_latency:7d} "
                  f"{report.update_throughput_mops:9.0f} "
                  f"{report.search_throughput_mops:10.0f}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core import check_equivalence

    config = unit_for_entries(
        args.entries,
        block_size=args.block_size,
        data_width=args.data_width,
        bus_width=max(128, args.data_width),
        cam_type=CamType[args.cam_type.upper()],
        default_groups=args.groups,
    )
    print(f"config: {config.num_blocks} blocks x {config.block.block_size} "
          f"cells, {config.data_width}-bit {args.cam_type} entries, "
          f"M={args.groups}")
    report = check_equivalence(config, operations=args.operations,
                               seed=args.seed)
    print(f"batch vs cycle vs golden: {report.summary()}")
    _write_trace(args.trace_out)
    return 0 if report.passed else 1


def _report_traffic(args: argparse.Namespace, name: str, spec,
                    report) -> None:
    """Print a traffic run; write its manifest when asked."""
    print(report.render())
    _write_trace(getattr(args, "trace_out", None))
    if args.manifest_out:
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "manifest_out", "trace_out")}
        _write_manifest(args.manifest_out,
                        report.manifest(spec, name, config))


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import (
        DEMO_MIX,
        CamService,
        TrafficSpec,
        demo_cam,
        drive,
    )

    cam = demo_cam(
        entries_per_shard=args.entries_per_shard,
        shards=args.shards,
        engine=args.engine,
        policy=args.policy,
        poison_shard=args.poison_shard,
        replicas=args.replicas,
        fault_mode=args.fault_mode,
    )
    spec = TrafficSpec(requests=args.requests, concurrency=args.clients,
                       seed=args.seed, **DEMO_MIX)
    print(f"service: {cam.engine_name}, policy={args.policy}, "
          f"capacity={cam.capacity}")
    print(f"traffic: {spec.requests} requests from {spec.concurrency} "
          f"clients (seed {spec.seed})")

    async def run():
        async with CamService(
            cam,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay_ms / 1e3,
            request_timeout_s=args.timeout_ms / 1e3,
            auto_repair=args.auto_repair,
        ) as service:
            return await drive(service, spec)

    report = asyncio.run(run())
    _report_traffic(args, "cli_serve_demo", spec, report)
    if args.poison_shard is None and report.ok < report.requests:
        return 1
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.net import MAX_FRAME_SIZE, CamServer
    from repro.service import CamService, demo_cam

    cam = demo_cam(
        entries_per_shard=args.entries_per_shard,
        shards=args.shards,
        engine=args.engine,
        policy=args.policy,
        replicas=args.replicas,
    )

    async def _serve() -> int:
        service = CamService(
            cam,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay_ms / 1e3,
            request_timeout_s=args.timeout_ms / 1e3,
        )
        await service.start()
        server = CamServer(
            service,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            max_frame_size=args.max_frame_size or MAX_FRAME_SIZE,
            idle_timeout_s=args.idle_timeout_s,
        )
        await server.start()
        host, port = server.address
        print(f"serving {cam.engine_name} "
              f"(capacity {cam.capacity}) on {host}:{port}", flush=True)

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        try:
            if args.max_seconds is not None:
                try:
                    await asyncio.wait_for(stop.wait(), args.max_seconds)
                except asyncio.TimeoutError:
                    pass
            else:
                await stop.wait()
        finally:
            print("draining...", flush=True)
            await server.stop()
            await service.stop()
        stats = server.stats
        print(f"served {stats.requests} requests over "
              f"{stats.connections_opened} connections "
              f"({stats.decode_errors} decode errors, "
              f"{stats.retry_later} drained)")
        return 0

    return asyncio.run(_serve())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net import CamClient
    from repro.service import TrafficSpec, drive

    spec = TrafficSpec(
        requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate if args.mode == "open" else None,
        batch=args.batch,
        kill_after=args.kill_after,
        seed=args.seed,
    )
    print(f"loadgen: {args.mode} loop against "
          f"{args.host}:{args.port} "
          f"({'naive' if args.naive else 'pipelined'}, "
          f"pool={args.pool})", flush=True)

    async def run():
        async with CamClient(args.host, args.port, pool_size=args.pool,
                             pipelined=not args.naive,
                             request_timeout_s=args.timeout_s,
                             max_retries=5) as client:
            return await drive(client, spec)

    report = asyncio.run(run())
    _report_traffic(args, "net_loadgen", spec, report)
    return 1 if report.errors else 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import random

    if args.entries < 1:
        print("error: --entries must be >= 1", file=sys.stderr)
        return 1
    block_size = 64 if args.entries % 64 == 0 else args.entries
    config = unit_for_entries(args.entries, block_size=block_size,
                              default_groups=args.groups)
    cam = open_session(config, args.engine, shards=args.shards)
    rng = random.Random(args.seed)
    target = max(1, int(cam.capacity * min(max(args.fill, 0.0), 1.0)))
    values = rng.sample(range(1, 1 << 32), target)
    cam.update(values)
    # Punch holes so the snapshot exercises dead-slot preservation, then
    # add fresh entries past the holes (fill pointers never rewind).
    victims = values[:: max(2, target // max(1, target // 8))][: target // 8]
    for value in victims:
        cam.delete(value)
    refill = rng.sample(range(1 << 32, (1 << 32) + target), len(victims) // 2)
    if refill and cam.occupancy + len(refill) <= cam.capacity:
        cam.update(refill)
    snap = cam.snapshot()
    snap.save(args.out)
    print(f"snapshot: {snap.describe()}")
    print(f"content hash: {snap.content_hash()}")
    print(f"wrote {args.out}")
    return 0


def _backend_for_snapshot(snap, engine: Optional[str], **overrides):
    """Rebuild an empty, restore-compatible backend from snapshot meta;
    set ``overrides`` replace its geometry (to show mismatch failures)."""
    from repro.core import Encoding, ReferenceCam
    from repro.service import ShardedCam
    from repro.service.snapshot import unit_config

    if snap.kind == "reference":
        capacity = int(overrides.get("entries") or snap.meta["capacity"])
        return ReferenceCam(capacity,
                            encoding=Encoding(snap.meta["encoding"]))
    if snap.kind == "sharded":
        child = snap.children[0].meta
        return ShardedCam(
            unit_config(child, **overrides),
            shards=int(snap.meta["shards"]),
            policy=snap.meta.get("policy", "hash"),
            engine=engine or child.get("engine", "batch"),
            replicas=int(snap.meta.get("replicas", 1)),
        )
    if snap.kind == "unit":
        return open_session(unit_config(snap.meta, **overrides),
                            engine or snap.meta.get("engine", "batch"))
    raise ReproError(
        f"cannot rebuild a {snap.kind!r} CAM from the CLI; construct the "
        "session programmatically and call restore()"
    )


def _cmd_restore(args: argparse.Namespace) -> int:
    from repro.errors import SnapshotError
    from repro.service import CamSnapshot
    from repro.service.snapshot import geometry_line

    try:
        snap = CamSnapshot.load(args.path)
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    except SnapshotError as error:
        print(f"error: cannot decode {args.path}: {error}", file=sys.stderr)
        return 1
    print(f"loaded {args.path}: {snap.describe()}")
    cam = _backend_for_snapshot(snap, args.engine, entries=args.entries,
                                block_size=args.block_size,
                                data_width=args.data_width)
    try:
        cam.restore(snap)
    except SnapshotError as error:
        print(
            "error: snapshot/config mismatch: "
            f"snapshot[{geometry_line(snap)}] vs "
            f"target[{geometry_line(cam.snapshot())}]: {error}",
            file=sys.stderr,
        )
        return 1
    print(f"restored into {cam.engine_name}: "
          f"{cam.occupancy}/{cam.capacity} entries")
    if args.verify:
        want = snap.content_hash()
        got = cam.snapshot().content_hash()
        if want != got:
            print(f"verify FAILED: {got} != {want}", file=sys.stderr)
            return 1
        print(f"verify ok: content hash {want}")
    return 0


def _cmd_validate_manifest(path: str) -> int:
    manifest = obs.load_manifest(path)
    meta = manifest["meta"]
    print(f"{path}: valid ({manifest['schema']})")
    print(f"  name: {manifest['name']}")
    print(f"  version: {meta['version']}  git: {meta['git_sha']}  "
          f"python: {meta['python']}")
    print(f"  timings: {len(manifest['timings'])}  "
          f"metric families: {len(manifest['metrics'])}")
    return 0


def _cmd_vcd(out_path: str) -> int:
    from repro.sim import write_vcd

    session = CamSession(
        unit_for_entries(64, block_size=16, data_width=32, bus_width=128,
                         default_groups=2),
        trace=True,
    )
    session.update([0xAA, 0xBB, 0xCC])
    session.search([0xBB, 0x99])
    session.delete(0xAA)
    write_vcd(session.trace, out_path)
    print(f"wrote {len(session.trace)} trace events "
          f"({session.cycle} cycles) to {out_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _telemetry(args):
            return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "info":
        return _cmd_info()
    if args.command == "exhibit":
        return _cmd_exhibit(args.name, args.max_edges)
    if args.command == "generate-hdl":
        return _cmd_generate_hdl(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "tc":
        return _cmd_tc(args.dataset, args.max_edges, args.trace_out)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "serve-demo":
        return _cmd_serve_demo(args)
    if args.command == "serve":
        return _cmd_serve_net(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "restore":
        return _cmd_restore(args)
    if args.command == "validate-manifest":
        return _cmd_validate_manifest(args.path)
    if args.command == "sweep":
        return _cmd_sweep(args.level, args.sizes, args.data_width)
    return _cmd_vcd(args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
