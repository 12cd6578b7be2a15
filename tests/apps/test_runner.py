"""Unit tests for the Table IX experiment runner."""

import pytest

from repro.apps.tc import (
    TcRow,
    arithmetic_mean_speedup,
    run_all,
    run_dataset,
    verify_functional_equivalence,
)
from repro.errors import DatasetError
from repro.graph import power_law


def test_run_dataset_row_fields():
    row = run_dataset("as20000102", max_edges=15_000, seed=0)
    assert row.dataset == "as20000102"
    assert row.scale == 1.0
    assert row.triangles > 0
    assert row.cam_ms > 0 and row.baseline_ms > 0
    assert row.paper_speedup == pytest.approx(7.4 / 0.422)


def test_run_dataset_speedup_property():
    row = TcRow("x", 1.0, 10, 20, 5, cam_ms=2.0, baseline_ms=6.0,
                paper_cam_ms=1.0, paper_baseline_ms=4.0)
    assert row.speedup == pytest.approx(3.0)
    assert row.paper_speedup == pytest.approx(4.0)


def test_run_all_subset():
    rows = run_all(["roadNet-PA", "facebook_combined"], max_edges=10_000, seed=1)
    assert [row.dataset for row in rows] == ["roadNet-PA", "facebook_combined"]
    assert rows[1].speedup > rows[0].speedup, (
        "social graphs must beat road graphs"
    )


def test_mean_speedups():
    rows = [
        TcRow("a", 1, 1, 1, 1, 1.0, 2.0, 1.0, 1.0),
        TcRow("b", 1, 1, 1, 1, 1.0, 8.0, 1.0, 1.0),
    ]
    assert arithmetic_mean_speedup(rows) == pytest.approx(5.0)
    with pytest.raises(DatasetError):
        arithmetic_mean_speedup([])


def test_functional_equivalence_harness():
    graph = power_law(300, 1200, triangle_fraction=0.3, seed=2)
    assert verify_functional_equivalence(graph, sample_edges=4) >= 3


def test_functional_equivalence_empty_graph():
    from repro.graph import CSRGraph

    empty = CSRGraph.from_edges([], num_vertices=3)
    assert verify_functional_equivalence(empty) == 0
