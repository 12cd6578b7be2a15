"""Unit tests for the structural graph metrics."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import (
    CSRGraph,
    degree_profile,
    estimate_tail_exponent,
    gini_coefficient,
    power_law,
    road_network,
    sample_clustering_coefficient,
)


def test_gini_uniform_is_zero():
    assert gini_coefficient(np.array([5, 5, 5, 5])) == pytest.approx(0.0)


def test_gini_concentrated_is_high():
    concentrated = np.array([0] * 99 + [100])
    assert gini_coefficient(concentrated) > 0.9


def test_gini_empty_and_zero():
    assert gini_coefficient(np.array([])) == 0.0
    assert gini_coefficient(np.zeros(5)) == 0.0


def test_tail_exponent_recovers_zipf():
    rng = np.random.default_rng(1)
    degrees = rng.zipf(2.5, size=20_000)
    alpha = estimate_tail_exponent(degrees)
    assert alpha == pytest.approx(2.5, abs=0.3)


def test_tail_exponent_none_without_tail():
    assert estimate_tail_exponent(np.array([1, 2, 3])) is None


def test_degree_profile_fields():
    graph = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
    profile = degree_profile(graph)
    assert profile.vertices == 4
    assert profile.edges == 4
    assert profile.maximum == 3
    assert profile.mean == pytest.approx(2.0)
    assert profile.hub_ratio == pytest.approx(1.5)


def test_degree_profile_empty_rejected():
    with pytest.raises(DatasetError):
        degree_profile(CSRGraph(np.zeros(1, dtype=np.int64),
                                np.empty(0, dtype=np.int64)))


def test_power_law_has_heavier_tail_than_road():
    social = degree_profile(power_law(2000, 8000, exponent=2.1, seed=2))
    road = degree_profile(road_network(2000, seed=2))
    assert social.gini > road.gini
    assert social.hub_ratio > 3 * road.hub_ratio


def test_clustering_of_triangle_rich_graph():
    closed = power_law(500, 2000, triangle_fraction=0.6, seed=3)
    open_graph = road_network(500, seed=3)
    assert sample_clustering_coefficient(closed) > \
        sample_clustering_coefficient(open_graph)


def test_clustering_of_clique_is_one():
    clique = CSRGraph.from_edges(
        [(u, v) for u in range(6) for v in range(u + 1, 6)]
    )
    assert sample_clustering_coefficient(clique) == pytest.approx(1.0)


def test_clustering_of_star_is_zero():
    star = CSRGraph.from_edges([(0, i) for i in range(1, 8)])
    assert sample_clustering_coefficient(star) == pytest.approx(0.0)
