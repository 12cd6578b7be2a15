"""Stack benchmark: four Table IX workloads, from the wire to the cycle engine.

Run from the repository root::

    python3 perfbench/run.py --workload wire-point --seed 3 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics. ``--trace 1`` measures half the window untraced and half with
the benchmark's span tracer wrapped around every layer, and prints the
per-layer metrics (``trace.overhead`` is traced over untraced
throughput). Human-readable lines come first; the last line of standard
output is one JSON object. Any wrong answer, failed status or content
mismatch ends the run with exit code 1 and no JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Length of one timed round; a measured window holds several.
ROUND_S = 0.25
#: Untimed warm-up before each measured window.
WARMUP_S = 0.5


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=3,
                        help="workload seed (3 is the Table IX seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def slowdown(before: float) -> float:
    """The host's slowdown over a measurement that began after a
    calibration burst of ``before`` seconds; runs the closing burst."""
    from helpers import CALIBRATION_REF_S, calibration_burst

    return (before + calibration_burst()) / (2 * CALIBRATION_REF_S)


async def timed_setup(workload, setups: list):
    """Build a stack; appends ``(seconds, store call times)`` to
    ``setups``, both at the reference host's speed."""
    from helpers import calibration_burst, scaled_seconds

    gc.collect()
    writes: list = []
    before = calibration_burst()
    started, cpu = workload.clock(), time.thread_time()
    stack = await workload.setup(writes)
    seconds, cpu = workload.clock() - started, time.thread_time() - cpu
    factor = slowdown(before) if workload.scaled else 1.0
    scaled = scaled_seconds(seconds, cpu, factor)
    setups.append((scaled, [t * scaled / seconds for t in writes]))
    return stack


async def measure(workload, stack, seconds: float, setups=None):
    """Rounds of about :data:`ROUND_S` until ``seconds`` of them ran.

    Calibration bursts bracket every call for rounds, so each round
    knows the host's slowdown while it ran. With ``setups``, the
    workload's remaining timed setups run spread between the rounds
    (each stack is torn down again at once).
    """
    from helpers import calibration_burst
    from workloads import Phase

    extra = workload.setups - 1 if setups is not None else 0
    phase = Phase()
    measured = 0.0
    gc.collect()
    while measured < seconds:
        while setups is not None and len(setups) <= extra * measured / seconds:
            await workload.teardown(await timed_setup(workload, setups))
        before = calibration_burst()
        started = time.perf_counter()
        rounds = await workload.measure_rounds(stack, ROUND_S)
        measured += time.perf_counter() - started
        phase.slowdowns.append(slowdown(before))
        if workload.scaled:
            for result in rounds:
                result.slowdown = phase.slowdowns[-1]
        phase.rounds += rounds
    while setups is not None and len(setups) <= extra:
        await workload.teardown(await timed_setup(workload, setups))
    return phase


async def execute(workload, seconds: float, trace: bool) -> dict:
    from tracer import Tracer

    run = {"setups": [], "traced": None, "tracer": None}
    stack = await timed_setup(workload, run["setups"])
    try:
        await workload.measure_rounds(stack, WARMUP_S)
        if not trace:
            run["phase"] = await measure(workload, stack, seconds,
                                         run["setups"])
        else:
            run["phase"] = await measure(workload, stack, seconds / 2)
            run["before"] = workload.counters(stack)
            run["tracer"] = tracer = Tracer()
            tracer.install()
            try:
                run["traced"] = await measure(workload, stack, seconds / 2)
            finally:
                tracer.uninstall()
            run["after"] = workload.counters(stack)
        run["notes"] = await workload.finish(stack)
    finally:
        await workload.teardown(stack)
    return run


def rate(phase) -> float:
    """Median keys per second over the rounds, at the reference speed."""
    from helpers import median

    return median(r.rate for r in phase.rounds)


def tail(groups, q: float) -> tuple:
    """``q``-quantile of latency sample groups (rounds or setups).

    When every group alone holds enough samples for ``q``, the result is
    the median of the per-group quantiles: one stall delays every
    request in flight together, so pooled samples would let a single
    stalled group decide the tail. Otherwise the groups are pooled.
    Returns ``(value, effective q, description)``.
    """
    from helpers import MIN_BEYOND, median, tail_percentile

    if all(len(g) * (1 - q) >= MIN_BEYOND for g in groups):
        value = median(tail_percentile(g, q)[0] for g in groups)
        return value, q, f"median over {len(groups)} groups of"
    pooled = [x for g in groups for x in g]
    value, effective = tail_percentile(pooled, q)
    return value, effective, "pooled"


def end_to_end(workload, run) -> tuple:
    from helpers import median

    phase = run["phase"]
    lookups = phase.scaled("lookup_lat")
    # A workload that does not write while measured reports its seed-set
    # store calls: every end-to-end metric must have a value.
    writes_measured = any(r.write_lat for r in phase.rounds)
    if writes_measured:
        writes = phase.scaled("write_lat")
    else:
        writes = [lat for _, lat in run["setups"]]
    lookup_p99, lookup_q, lookup_how = tail(lookups, 0.99)
    write_p99, write_q, write_how = tail(writes, 0.99)
    metrics = {
        "setup_s": (median(t for t, _ in run["setups"]), "s"),
        "lookups_per_s": (rate(phase), "keys/s"),
        "lookup_p50_ms": (tail(lookups, 0.5)[0] * 1e3, "ms"),
        "write_p50_ms": (tail(writes, 0.5)[0] * 1e3, "ms"),
        "sim_keys_per_cycle": (phase.total("keys") / phase.total("sim_cycles"),
                               "keys/cycle"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    slowdowns = sorted(phase.slowdowns)
    busy = phase.total("cpu") / phase.total("seconds")
    notes = [
        ("times at the reference host's speed" if workload.scaled
         else "times as measured")
        + f": host slowdown {slowdowns[0]:.3g} to {slowdowns[-1]:.3g} "
        f"(median {median(slowdowns):.3g}); thread busy {busy:.0%} of the "
        "measured time",
        f"setup_s: median of {len(run['setups'])} setups",
        # Reported, not gated: on a shared host their run-to-run spread
        # reached the largest bound BENCHMARK.json may set.
        f"lookup_p99_ms {lookup_p99 * 1e3:.4g}: p{lookup_q * 100:.1f}, "
        f"{lookup_how} {sum(map(len, lookups))} lookup call times",
        f"write_p99_ms {write_p99 * 1e3:.4g}: p{write_q * 100:.1f}, "
        f"{write_how} {sum(map(len, writes))} "
        + ("INSERT/DELETE frames" if writes_measured
           else "seed-set store calls of setup"),
    ]
    return metrics, notes


#: Per-layer metric -> unit (the ``better`` direction is in BENCHMARK.json).
LAYER_UNITS = {
    "net.frames": "count", "net.bytes_per_key": "B/key",
    "net.codec_us_per_frame": "us", "net.self_us_per_frame": "us",
    "net.retries": "count", "net.dedupe_hits": "count",
    "service.requests_per_key": "ratio", "service.batch_occupancy": "requests",
    "service.latency_p50_us": "us", "service.self_us_per_request": "us",
    "service.max_queue_depth": "count", "service.timeouts": "count",
    "service.shard_failures": "count", "service.client_errors": "count",
    "sharded.keys_per_call": "keys", "sharded.self_us_per_key": "us",
    "sharded.partition_us_per_word": "us", "sharded.sim_cycles":
        "cycles/1000keys",
    "replica.write_amplification": "ratio", "replica.self_us_per_write": "us",
    "replica.failovers": "count", "replica.divergences": "count",
    "batch.keys_per_call": "keys", "batch.search_us_per_key": "us",
    "batch.update_us_per_word": "us", "batch.delete_us_per_call": "us",
    "cycle.host_ms_per_sim_cycle": "ms", "cycle.search_ms_per_key": "ms",
    "cycle.sim_cycles": "cycles/1000keys", "trace.overhead": "ratio",
}


def per_layer(workload, run) -> dict:
    tracer, traced = run["tracer"], run["traced"]
    values = tracer.layer_metrics()
    before, after = run["before"], run["after"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    net = [span for span in tracer.spans if span.layer == "net"]
    carried = sum(span.units if span.op != "insert" else 1 for span in net)
    dispatches = delta("dispatches")
    values.update({
        "net.retries": delta("retries"),
        "net.dedupe_hits": delta("dedupe_hits"),
        "service.requests_per_key": (delta("admitted") / carried
                                     if carried else 0.0),
        "service.batch_occupancy": (delta("dispatched_requests") / dispatches
                                    if dispatches else 0.0),
        "service.max_queue_depth": after.get("max_queue_depth", 0),
        "service.timeouts": delta("timeouts"),
        "service.shard_failures": delta("shard_failures"),
        "service.client_errors": delta("client_errors"),
        "replica.failovers": delta("failovers"),
        "replica.divergences": delta("divergences"),
        "sharded.sim_cycles": (
            traced.total("sim_cycles") / traced.total("keys") * 1000
            if workload.sharded else 0.0),
        "trace.overhead": rate(traced) / rate(run["phase"]),
    })
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # One process, one thread: keep NumPy's BLAS pool from starting more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS, Mismatch

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        run = asyncio.run(execute(workload, args.seconds, bool(args.trace)))
    except Mismatch as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: WRONG ANSWER: "
              f"{exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    phase = run["phase"]
    if args.trace:
        metrics = per_layer(workload, run)
        notes = [f"traced window: {run['traced'].total('keys')} keys, "
                 f"{len(run['tracer'].spans)} spans"]
    else:
        metrics, notes = end_to_end(workload, run)
    for line in notes + run["notes"]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    operations = phase.total("operations")
    print(f"  error_rate 0 (0 failed of {operations} operations)")
    print(json.dumps({
        "correct": True,
        "attempted": max(1, operations),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
