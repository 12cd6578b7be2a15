"""Table IX: triangle-counting execution time, CAM vs merge baseline.

Runs both accelerator cost models over synthetic stand-ins of the ten
SNAP graphs (scaled; see DESIGN.md), prints the measured-vs-paper
table, and checks the claims that must survive the substitution:

- the CAM design wins on *every* dataset;
- road networks (tiny uniform adjacency lists, no parallelism to
  harvest) sit at the bottom of the speedup range, near the paper's
  1.75-2.57x;
- hub-heavy / dense graphs sit well above them;
- the overall average lands in the paper's low-single-digit regime.
"""

import gc
import time

import pytest

from conftest import engine_kwargs, run_once

from repro.apps.tc import (
    arithmetic_mean_speedup,
    run_all,
    verify_functional_equivalence,
)
from repro.apps.tc.intersect import CamIntersector
from repro.bench.experiments import table09_triangle_counting
from repro.core.batch import open_session
from repro.core.config import unit_for_entries
from repro.graph import power_law
from repro.service.workload import table09_probe_stream

MAX_EDGES = 120_000


@pytest.mark.slow
def test_table09_triangle_counting(benchmark, record_exhibit):
    table = run_once(
        benchmark, lambda: table09_triangle_counting(max_edges=MAX_EDGES)
    )
    record_exhibit("table09_triangle_counting", table)

    rows = run_all(max_edges=MAX_EDGES, seed=0)
    by_name = {row.dataset: row for row in rows}

    # The CAM accelerator wins everywhere, as in the paper.
    for row in rows:
        assert row.speedup > 1.0, f"{row.dataset}: {row.speedup:.2f}"

    # Road networks are the weakest speedups (paper: 1.75-2.57x).
    road = [by_name[name].speedup
            for name in ("roadNet-CA", "roadNet-PA", "roadNet-TX")]
    non_road = [row.speedup for row in rows
                if not row.dataset.startswith("roadNet")]
    assert max(road) < max(non_road)
    for speedup in road:
        assert 1.2 < speedup < 3.5, speedup

    # Dense / hub-heavy graphs benefit most (paper: 3.5-17.5x).
    assert by_name["ca-cit-HepPh"].speedup > 4.0
    assert by_name["facebook_combined"].speedup > 3.0

    # Average speedup in the paper's regime (it reports 4.92x).
    average = arithmetic_mean_speedup(rows)
    assert 2.5 < average < 8.0, average


def test_functional_equivalence_on_real_cam(benchmark, cam_engine,
                                            audit_sample):
    """The CAM computes the same intersections as the merge baseline on
    sampled edges (the correctness half of Table IX).

    Runs on the engine selected with ``--cam-engine`` (default: the
    vectorized batch engine; ``audit`` additionally replays a sampled
    fraction of episodes through the cycle-accurate shadow and asserts
    bit-exact agreement)."""
    graph = power_law(500, 2000, triangle_fraction=0.4, seed=11)
    intersector = CamIntersector(
        **engine_kwargs(cam_engine, audit_sample)
    )
    verified = run_once(
        benchmark,
        lambda: verify_functional_equivalence(
            graph, sample_edges=8, intersector=intersector
        ),
    )
    assert verified >= 6
    if cam_engine == "audit":
        report = intersector.session.audit_report
        assert report.passed, report.summary()


#: Keys per ``search`` call on the probe stream: one cycle-referee call.
PROBE_CALL_KEYS = 16


def _probe_stream_run(engine: str, stored, probes):
    """Store the Table IX probe stream's words in one 1024-entry unit
    (the cycle-referee shape: 16 blocks of 64 cells), then time its
    probes in :data:`PROBE_CALL_KEYS`-key ``search`` calls. Each call
    returns every match of its keys (a :class:`SearchBatch`); the
    answers are compared after the timed region."""
    session = open_session(
        unit_for_entries(1024, block_size=64, data_width=32, bus_width=512),
        engine=engine,
    )
    session.update(stored)
    first_cycle = session.cycle
    gc.collect()
    start = time.perf_counter()
    answers = [session.search(probes[i:i + PROBE_CALL_KEYS])
               for i in range(0, len(probes), PROBE_CALL_KEYS)]
    elapsed = time.perf_counter() - start
    return answers, session.cycle - first_cycle, elapsed


def test_batch_engine_speedup(benchmark, record_text):
    """Wall-clock speedup of the batch engine over the cycle-accurate
    simulator on the bulk Table IX probe stream.

    Both engines answer the identical ``table09_probe_stream(1024,
    seed=3)`` calls and must report identical answers and simulated
    cycle counts; only the wall-clock differs. The gated ratio is the
    one the batch engine exists for: the bulk stream, where simulated
    cycles dominate the cycle engine's cost. The short triangle-counting
    verification (a couple of hundred cycles, mostly setup) is reported
    beside it, ungated. Both are archived under benchmarks/results/."""
    stored, probes = table09_probe_stream(1024, seed=3)
    cycle_answers, cycle_cycles, cycle_s = _probe_stream_run(
        "cycle", stored, probes)
    batch_answers, batch_cycles, batch_s = benchmark.pedantic(
        lambda: _probe_stream_run("batch", stored, probes),
        iterations=1, rounds=1,
    )
    assert batch_answers == cycle_answers
    assert batch_cycles == cycle_cycles
    speedup = cycle_s / batch_s

    graph = power_law(500, 2000, triangle_fraction=0.4, seed=11)

    def verify(engine: str):
        intersector = CamIntersector(engine=engine)
        start = time.perf_counter()
        verified = verify_functional_equivalence(
            graph, sample_edges=8, intersector=intersector
        )
        elapsed = time.perf_counter() - start
        return verified, intersector.session.cycle, elapsed

    tc_cycle_verified, tc_cycle_cycles, tc_cycle_s = verify("cycle")
    tc_batch_verified, tc_batch_cycles, tc_batch_s = verify("batch")
    assert tc_batch_verified == tc_cycle_verified
    assert tc_batch_cycles == tc_cycle_cycles
    record_text(
        "batch_engine_speedup",
        "\n".join([
            "batch engine vs cycle-accurate simulator",
            f"(Table IX probe stream: table09_probe_stream(1024, seed=3), "
            f"{len(probes)} probes in {PROBE_CALL_KEYS}-key search calls "
            "on one 1024-entry unit)",
            "",
            f"cycle engine : {cycle_s:8.3f} s  ({cycle_cycles} simulated cycles)",
            f"batch engine : {batch_s:8.3f} s  ({batch_cycles} simulated cycles)",
            f"speedup      : {speedup:8.1f} x  (identical results and cycle"
            " counts; gated at >= 20x)",
            "",
            "triangle-counting verification, reported, not gated "
            "(power_law(500, 2000), 8 sampled edges):",
            f"cycle engine : {tc_cycle_s:8.3f} s  ({tc_cycle_cycles} simulated"
            " cycles)",
            f"batch engine : {tc_batch_s:8.3f} s  ({tc_batch_cycles} simulated"
            " cycles)",
            f"speedup      : {tc_cycle_s / tc_batch_s:8.1f} x",
        ]),
    )
    assert speedup >= 20.0, f"batch engine only {speedup:.1f}x faster"
