"""End-to-end Table IX experiment driver.

For each dataset the runner generates the synthetic stand-in, counts
its triangles exactly (the "Triangles" column), evaluates both cost
models, and reports measured vs paper speedups. A functional
cross-check (:func:`verify_functional_equivalence`) drives the real
cycle-accurate CAM on sampled edges to prove the accelerator datapath
computes the same intersections as the merge baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

import numpy as np

from repro import obs
from repro.apps.tc.accelerator import CamTriangleCounter
from repro.apps.tc.baseline import MergeTriangleCounter
from repro.apps.tc.intersect import CamIntersector, merge_intersect
from repro.errors import DatasetError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DatasetSpec, dataset_names, get_dataset
from repro.graph.triangles import count_triangles, count_triangles_matrix


@dataclass(frozen=True)
class TcRow:
    """One Table IX row: measured + paper reference numbers."""

    dataset: str
    scale: float
    vertices: int
    edges: int
    triangles: int
    cam_ms: float
    baseline_ms: float
    paper_cam_ms: float
    paper_baseline_ms: float

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.cam_ms if self.cam_ms else float("inf")

    @property
    def paper_speedup(self) -> float:
        return self.paper_baseline_ms / self.paper_cam_ms


def _count(graph: CSRGraph) -> int:
    try:
        return count_triangles_matrix(graph)
    except ImportError:  # scipy unavailable: fall back to the merge count
        return count_triangles(graph)


def run_dataset(
    dataset: Union[str, DatasetSpec],
    max_edges: int = 120_000,
    seed: Optional[int] = None,
    cam: Optional[CamTriangleCounter] = None,
    baseline: Optional[MergeTriangleCounter] = None,
) -> TcRow:
    """Run one Table IX row on the dataset's synthetic stand-in."""
    spec = get_dataset(dataset) if isinstance(dataset, str) else dataset
    with obs.span("tc.dataset", name=spec.name, max_edges=max_edges):
        standin = spec.standin(max_edges=max_edges, seed=seed)
        graph = standin.graph
    cam = cam if cam is not None else CamTriangleCounter()
    baseline = baseline if baseline is not None else MergeTriangleCounter()
    with obs.span("tc.cost_model", name=spec.name, accelerator="cam"):
        cam_cost = cam.cost(graph)
    with obs.span("tc.cost_model", name=spec.name, accelerator="merge"):
        merge_cost = baseline.cost(graph)
    obs.inc("tc_rows_total", help="Table IX rows evaluated")
    return TcRow(
        dataset=spec.name,
        scale=standin.scale,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        triangles=_count(graph),
        cam_ms=cam_cost.time_ms,
        baseline_ms=merge_cost.time_ms,
        paper_cam_ms=spec.paper_time_cam_ms,
        paper_baseline_ms=spec.paper_time_baseline_ms,
    )


def run_all(
    datasets: Optional[Iterable[str]] = None,
    max_edges: int = 120_000,
    seed: Optional[int] = None,
) -> List[TcRow]:
    """Run every Table IX row (paper order)."""
    names = list(datasets) if datasets is not None else dataset_names()
    return [run_dataset(name, max_edges=max_edges, seed=seed) for name in names]


def arithmetic_mean_speedup(rows: Iterable[TcRow]) -> float:
    """The paper's headline aggregation (it reports the plain average)."""
    speedups = [row.speedup for row in rows]
    if not speedups:
        raise DatasetError("no rows to aggregate")
    return float(np.mean(speedups))


def verify_functional_equivalence(
    graph: CSRGraph,
    sample_edges: int = 16,
    seed: int = 7,
    intersector: Optional[CamIntersector] = None,
    engine: str = "cycle",
) -> int:
    """Drive the real CAM on sampled edges; assert it matches the merge.

    Returns the number of verified edges. Raises ``AssertionError`` on
    the first divergence (this is a verification harness, used by the
    integration tests and the quickstart example). ``engine`` selects
    the CAM execution engine when no ``intersector`` is supplied --
    ``"audit"`` keeps the cross-check honest by differentially
    replaying sampled episodes through the cycle-accurate model.
    """
    rng = np.random.default_rng(seed)
    oriented = graph.oriented()
    src, dst = oriented.edge_endpoints()
    if src.size == 0:
        return 0
    cam = intersector if intersector is not None else CamIntersector(engine=engine)
    picks = rng.choice(src.size, size=min(sample_edges, src.size), replace=False)
    verified = 0
    with obs.span("tc.verify", sampled_edges=int(picks.size)) as span:
        for index in picks:
            u, v = int(src[index]), int(dst[index])
            list_u = oriented.neighbors(u).tolist()
            list_v = oriented.neighbors(v).tolist()
            if max(len(list_u), len(list_v)) > cam.config.total_entries:
                continue
            if not list_u or not list_v:
                continue
            expected, _steps = merge_intersect(sorted(list_u), sorted(list_v))
            got, _cycles = cam.intersect(list_u, list_v)
            assert got == expected, (
                f"CAM intersection diverged on edge ({u}, {v}): "
                f"cam={got} merge={expected}"
            )
            verified += 1
        span.set(verified=verified)
    obs.inc("tc_verified_edges_total", verified,
            help="edges functionally cross-checked CAM vs merge")
    return verified
