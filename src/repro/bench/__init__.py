"""Benchmark harness helpers: table rendering and exhibit generators."""

from repro.bench.experiments import (
    ALL_EXHIBITS,
    PAPER_TABLE_VI,
    PAPER_TABLE_VII,
    PAPER_TABLE_VIII,
    fig01_characteristics,
    table01_survey,
    table05_cell,
    table06_block,
    table07_unit_scaling,
    table08_unit_perf,
    table09_triangle_counting,
)
from repro.bench.tables import TableData, fmt, ratio, within

__all__ = [
    "ALL_EXHIBITS",
    "PAPER_TABLE_VI",
    "PAPER_TABLE_VII",
    "PAPER_TABLE_VIII",
    "TableData",
    "fig01_characteristics",
    "fmt",
    "ratio",
    "table01_survey",
    "table05_cell",
    "table06_block",
    "table07_unit_scaling",
    "table08_unit_perf",
    "table09_triangle_counting",
    "within",
]
