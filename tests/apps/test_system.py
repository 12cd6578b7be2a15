"""Tests for the cycle-accurate end-to-end TC system (figure 6)."""

import pytest

from repro.apps.tc import simulate_system
from repro.graph import CSRGraph, count_triangles, power_law


def small_graph(seed=3):
    return power_law(60, 180, triangle_fraction=0.5, seed=seed)


def test_system_count_matches_reference_exactly():
    graph = small_graph()
    run = simulate_system(graph, total_entries=128, block_size=32)
    assert run.edges_skipped == 0
    assert run.triangles == count_triangles(graph)
    assert run.total_cycles > 0
    assert run.memory_stall_cycles > 0
    assert run.compute_cycles > run.memory_stall_cycles


def test_system_k4():
    k4 = CSRGraph.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    run = simulate_system(k4, total_entries=128, block_size=32)
    assert run.triangles == 4
    assert run.edges_processed == 6


def test_system_triangle_free():
    path = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    run = simulate_system(path, total_entries=128, block_size=32)
    assert run.triangles == 0


def test_system_skips_oversized_lists():
    # A clique's oriented out-degrees reach n-1, which exceeds a tiny
    # 16-entry CAM (a star would not: orientation empties the hub list).
    clique = CSRGraph.from_edges(
        [(u, v) for u in range(20) for v in range(u + 1, 20)]
    )
    run = simulate_system(clique, total_entries=16, block_size=16,
                          max_edges=40)
    assert run.edges_skipped > 0


def test_system_max_edges_cap():
    graph = small_graph()
    run = simulate_system(graph, total_entries=128, block_size=32,
                          max_edges=10)
    assert run.edges_processed + run.edges_skipped <= 10


def test_system_time_accounting():
    graph = small_graph(seed=4)
    run = simulate_system(graph, total_entries=128, block_size=32)
    assert run.time_us == pytest.approx(run.total_cycles / 300.0)
    assert run.cycles_per_edge > 0
