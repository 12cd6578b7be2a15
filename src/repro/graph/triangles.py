"""Exact triangle counting (the case study's golden results).

Two implementations:

- :func:`count_triangles` -- the forward (oriented) merge algorithm,
  vectorised with numpy; counts every triangle exactly once. This is
  also the *functional* specification both accelerator models must
  match.
- :func:`count_triangles_matrix` -- independent cross-check via the
  sparse adjacency-matrix identity ``trace(A^3) / 6`` (needs scipy).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def _intersect_sorted_count(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the intersection of two sorted arrays (merge count)."""
    if a.size == 0 or b.size == 0:
        return 0
    return int(np.intersect1d(a, b, assume_unique=True).size)


def count_triangles(graph: CSRGraph) -> int:
    """Exact triangle count via the forward algorithm.

    For every oriented edge (u, v), common oriented neighbours of u and
    v complete a triangle; orientation guarantees each triangle is
    found exactly once (at its lowest-ranked vertex).
    """
    oriented = graph.oriented()
    total = 0
    src, dst = oriented.edge_endpoints()
    for u, v in zip(src.tolist(), dst.tolist()):
        total += _intersect_sorted_count(
            oriented.neighbors(u), oriented.neighbors(v)
        )
    return total


def count_triangles_matrix(graph: CSRGraph) -> int:
    """Exact count via ``trace(A^3)/6`` on the sparse adjacency matrix."""
    from scipy import sparse

    n = graph.num_vertices
    if n == 0 or graph.indices.size == 0:
        return 0
    src = np.repeat(np.arange(n), graph.degrees)
    adjacency = sparse.csr_matrix(
        (np.ones(graph.indices.size, dtype=np.int64),
         (src, graph.indices)),
        shape=(n, n),
    )
    paths = (adjacency @ adjacency).multiply(adjacency)
    return int(paths.sum()) // 6


def id_oriented_out_degrees(graph: CSRGraph) -> np.ndarray:
    """Out-degree of each vertex under the standard id orientation.

    The Vitis-style triangle-count kernels (and the paper's CSR layout)
    keep, for vertex v, the neighbours with larger id -- each triangle
    is then found exactly once. Unlike the degree orientation this
    preserves hub asymmetry: a low-id hub keeps its long list, which is
    precisely the case where the CAM's parallel load/search pays off
    most (the as20000102 row of Table IX).
    """
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    forward = src < graph.indices
    return np.bincount(src[forward], minlength=graph.num_vertices)


def per_edge_full_lengths(graph: CSRGraph) -> "tuple[np.ndarray, np.ndarray]":
    """(longer, shorter) id-oriented list lengths per undirected edge.

    These two arrays drive the entire Table IX cost model: both kernels
    consume the same id-oriented CSR; per edge, the longer oriented
    list goes into the CAM (or one merge input), the shorter streams
    through as search keys (or the other merge input).
    """
    out_deg = id_oriented_out_degrees(graph)
    edges = graph.edge_array()
    len_u = out_deg[edges[:, 0]]
    len_v = out_deg[edges[:, 1]]
    longer = np.maximum(len_u, len_v)
    shorter = np.minimum(len_u, len_v)
    return longer, shorter


def clustering_summary(graph: CSRGraph) -> dict:
    """Quick structural profile used by dataset stand-in validation."""
    degrees = graph.degrees
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "avg_degree": float(degrees.mean()) if degrees.size else 0.0,
        "max_degree": int(degrees.max()) if degrees.size else 0,
        "degree_p99": float(np.percentile(degrees, 99)) if degrees.size else 0.0,
    }
