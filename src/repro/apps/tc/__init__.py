"""Triangle-counting case study (paper section V)."""

from repro.apps.tc.accelerator import CamTcCost, CamTriangleCounter
from repro.apps.tc.baseline import MergeTriangleCounter, TcCost
from repro.apps.tc.intersect import (
    CamIntersector,
    merge_intersect,
    numpy_intersect_count,
)
from repro.apps.tc.system import SystemRun, simulate_system
from repro.apps.tc.runner import (
    TcRow,
    arithmetic_mean_speedup,
    run_all,
    run_dataset,
    verify_functional_equivalence,
)

__all__ = [
    "CamIntersector",
    "CamTcCost",
    "CamTriangleCounter",
    "MergeTriangleCounter",
    "SystemRun",
    "TcCost",
    "TcRow",
    "simulate_system",
    "arithmetic_mean_speedup",
    "merge_intersect",
    "numpy_intersect_count",
    "run_all",
    "run_dataset",
    "verify_functional_equivalence",
]
