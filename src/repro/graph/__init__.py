"""Graph substrate: CSR graphs, generators, datasets, triangle counts."""

from repro.graph.csr import CSRGraph, OrientedCSR
from repro.graph.datasets import (
    DATASETS,
    DatasetSpec,
    StandIn,
    dataset_names,
    get_dataset,
)
from repro.graph.generators import (
    erdos_renyi,
    power_law,
    preferential_attachment,
    road_network,
)
from repro.graph.io import load_edge_list, save_edge_list
from repro.graph.metrics import (
    DegreeProfile,
    degree_profile,
    estimate_tail_exponent,
    gini_coefficient,
    sample_clustering_coefficient,
)
from repro.graph.triangles import (
    clustering_summary,
    count_triangles,
    count_triangles_matrix,
)

__all__ = [
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "DegreeProfile",
    "degree_profile",
    "estimate_tail_exponent",
    "gini_coefficient",
    "sample_clustering_coefficient",
    "OrientedCSR",
    "StandIn",
    "clustering_summary",
    "count_triangles",
    "count_triangles_matrix",
    "dataset_names",
    "erdos_renyi",
    "get_dataset",
    "load_edge_list",
    "power_law",
    "preferential_attachment",
    "road_network",
    "save_edge_list",
]
