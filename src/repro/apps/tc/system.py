"""End-to-end cycle-accurate triangle-counting system (figure 6).

Unlike the vectorised cost models (which estimate Table IX at SNAP
scale), this module *executes* the accelerator's dataflow on the real
simulated hardware for small graphs: for every oriented edge it stalls
for the DDR fetch of both adjacency lists, regroups the CAM to the
longer list, streams the list in as update beats, streams the shorter
list through as multi-query search beats, and accumulates matches --
every cycle accounted for by the simulator, every match produced by
actual DSP-cell comparisons.

It is the strongest correctness artefact of the case study: the count
it produces must equal the reference triangle count exactly, while its
cycle total grounds the cost model's assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.apps.tc.intersect import CamIntersector
from repro.graph.csr import CSRGraph
from repro.mem.bus import StreamBus
from repro.mem.ddr import U250_SINGLE_CHANNEL, DdrChannel


@dataclass(frozen=True)
class SystemRun:
    """Result of one cycle-accurate system execution."""

    triangles: int
    total_cycles: int
    compute_cycles: int
    memory_stall_cycles: int
    edges_processed: int
    edges_skipped: int
    frequency_mhz: float

    @property
    def time_us(self) -> float:
        return self.total_cycles / self.frequency_mhz

    @property
    def cycles_per_edge(self) -> float:
        if not self.edges_processed:
            return 0.0
        return self.total_cycles / self.edges_processed


def simulate_system(
    graph: CSRGraph,
    total_entries: int = 512,
    block_size: int = 128,
    channel: DdrChannel = U250_SINGLE_CHANNEL,
    frequency_mhz: float = 300.0,
    max_edges: Optional[int] = None,
    engine: str = "cycle",
) -> SystemRun:
    """Run the figure-6 dataflow on the cycle-accurate CAM.

    Edges whose longer list exceeds the CAM capacity are skipped (and
    reported) rather than tiled -- the tiling path is exercised by the
    cost model; this executable is about exactness on the common path.
    ``engine="batch"`` runs the identical dataflow on the vectorized
    fast path (same cycle totals, much faster wall-clock);
    ``engine="audit"`` adds sampled differential checking.
    """
    intersector = CamIntersector(total_entries=total_entries,
                                 block_size=block_size, engine=engine)
    session = intersector.session
    bus = StreamBus(width_bits=channel.interface_bits,
                    word_bits=session.config.data_width)

    oriented = graph.oriented()
    src, dst = oriented.edge_endpoints()
    triangles = 0
    memory_stalls = 0
    processed = 0
    skipped = 0

    edges = list(zip(src.tolist(), dst.tolist()))
    if max_edges is not None:
        edges = edges[:max_edges]

    with obs.span("tc.system", engine=engine, edges=len(edges)) as run_span:
        for u, v in edges:
            list_u = oriented.neighbors(u).tolist()
            list_v = oriented.neighbors(v).tolist()
            if not list_u or not list_v:
                processed += 1
                continue
            if max(len(list_u), len(list_v)) > total_entries:
                skipped += 1
                continue

            # DDR fetch of both lists plus the two offset/length words.
            with obs.span("tc.fetch_lists",
                          words=len(list_u) + len(list_v) + 4):
                fetch_bytes = bus.bytes_for_words(
                    len(list_u) + len(list_v) + 4
                )
                stall = channel.stream_cycles(fetch_bytes, frequency_mhz)
                session.idle(stall)
                memory_stalls += stall

            common, _cycles = intersector.intersect(list_u, list_v)
            triangles += common
            processed += 1
        run_span.set(triangles=triangles, skipped=skipped)

    total = session.cycle
    if obs.enabled():
        obs.inc("tc_edges_processed_total", processed,
                help="oriented edges driven through the system dataflow")
        obs.inc("tc_edges_skipped_total", skipped,
                help="edges skipped for exceeding the CAM capacity")
        obs.inc("tc_triangles_total", triangles,
                help="triangles counted by the system dataflow")
        obs.inc("tc_memory_stall_cycles_total", memory_stalls,
                help="cycles the system stalled on the DDR model")
    return SystemRun(
        triangles=triangles,
        total_cycles=total,
        compute_cycles=total - memory_stalls,
        memory_stall_cycles=memory_stalls,
        edges_processed=processed,
        edges_skipped=skipped,
        frequency_mhz=frequency_mhz,
    )
