"""Structural graph metrics for stand-in validation.

The Table IX stand-ins must match their originals where it matters to
the cost model: degree shape, hub weight, clustering. These metrics
quantify that (and are what the dataset tests assert against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import DatasetError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class DegreeProfile:
    """Summary of a degree distribution."""

    vertices: int
    edges: int
    mean: float
    median: float
    p99: float
    maximum: int
    gini: float
    tail_exponent: Optional[float]

    @property
    def hub_ratio(self) -> float:
        """Max degree relative to the mean (hub weight indicator)."""
        return self.maximum / self.mean if self.mean else 0.0


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = uniform)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0 or values.sum() == 0:
        return 0.0
    n = values.size
    index = np.arange(1, n + 1)
    return float((2 * (index * values).sum() - (n + 1) * values.sum())
                 / (n * values.sum()))


def estimate_tail_exponent(degrees: np.ndarray, d_min: int = 4) -> Optional[float]:
    """Hill/MLE estimate of a power-law tail exponent.

    Returns None when fewer than 10 vertices exceed ``d_min`` (no
    meaningful tail). The continuous MLE
    ``alpha = 1 + n / sum(ln(d / d_min))`` is adequate for validating
    the generators (we only need "is it heavy-tailed, roughly like the
    original").
    """
    tail = degrees[degrees >= d_min].astype(np.float64)
    if tail.size < 10:
        return None
    logs = np.log(tail / (d_min - 0.5))
    if logs.sum() <= 0:
        return None
    return float(1.0 + tail.size / logs.sum())


def degree_profile(graph: CSRGraph) -> DegreeProfile:
    """Compute the full degree summary of a graph."""
    degrees = graph.degrees
    if degrees.size == 0:
        raise DatasetError("cannot profile an empty graph")
    return DegreeProfile(
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        mean=float(degrees.mean()),
        median=float(np.median(degrees)),
        p99=float(np.percentile(degrees, 99)),
        maximum=int(degrees.max()),
        gini=gini_coefficient(degrees),
        tail_exponent=estimate_tail_exponent(degrees),
    )


def sample_clustering_coefficient(
    graph: CSRGraph, samples: int = 200, seed: int = 0
) -> float:
    """Average local clustering coefficient over sampled vertices."""
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(graph.degrees >= 2)
    if candidates.size == 0:
        return 0.0
    picks = rng.choice(candidates, size=min(samples, candidates.size),
                       replace=False)
    total = 0.0
    for vertex in picks:
        neighbors = graph.neighbors(int(vertex))
        degree = neighbors.size
        links = 0
        neighbor_set = set(neighbors.tolist())
        for u in neighbors:
            links += len(neighbor_set.intersection(
                graph.neighbors(int(u)).tolist()
            ))
        total += links / (degree * (degree - 1))
    return float(total / picks.size)
