"""Unit tests for triangle counting and the per-edge length analysis."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    count_triangles,
    count_triangles_matrix,
    erdos_renyi,
    power_law,
)
from repro.graph.triangles import (
    clustering_summary,
    id_oriented_out_degrees,
    per_edge_full_lengths,
)


def k4():
    """Complete graph on 4 vertices: 4 triangles."""
    return CSRGraph.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )


def test_known_counts():
    assert count_triangles(CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])) == 1
    assert count_triangles(k4()) == 4
    path = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    assert count_triangles(path) == 0


def test_forward_and_matrix_agree():
    for seed in (1, 2, 3):
        graph = power_law(400, 1600, triangle_fraction=0.3, seed=seed)
        assert count_triangles(graph) == count_triangles_matrix(graph)
    graph = erdos_renyi(300, 1500, seed=4)
    assert count_triangles(graph) == count_triangles_matrix(graph)


def test_empty_graph_counts_zero():
    empty = CSRGraph.from_edges([], num_vertices=3)
    assert count_triangles(empty) == 0
    assert count_triangles_matrix(empty) == 0


def test_id_oriented_out_degrees():
    star = CSRGraph.from_edges([(0, i) for i in range(1, 6)])
    out = id_oriented_out_degrees(star)
    # Vertex 0 has the lowest id: keeps all 5 forward neighbours.
    assert out[0] == 5
    assert out[1:].sum() == 0


def test_per_edge_full_lengths_shapes():
    graph = k4()
    longer, shorter = per_edge_full_lengths(graph)
    assert longer.size == graph.num_edges
    assert (longer >= shorter).all()
    # K4 id-oriented out-degrees are 3,2,1,0.
    assert longer.max() == 3
    assert shorter.min() == 0


def test_lengths_drive_hub_asymmetry():
    """A star's id-oriented edges all see (hub list, tiny list)."""
    star = CSRGraph.from_edges([(0, i) for i in range(1, 30)])
    longer, shorter = per_edge_full_lengths(star)
    assert (longer == 29).all()
    assert (shorter == 0).all()


def test_clustering_summary_fields():
    summary = clustering_summary(k4())
    assert summary["vertices"] == 4
    assert summary["edges"] == 6
    assert summary["avg_degree"] == pytest.approx(3.0)
    assert summary["max_degree"] == 3
