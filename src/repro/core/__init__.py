"""The paper's primary contribution: the configurable DSP-based CAM.

Public surface:

- configuration: :class:`CellConfig`, :class:`BlockConfig`,
  :class:`UnitConfig`, :func:`unit_for_entries` (Table III),
- entry construction: :func:`binary_entry`, :func:`ternary_entry`,
  :func:`ternary_entry_from_pattern`, :func:`range_entry` (Table II),
- hardware models: :class:`CamCell`, :class:`CamBlock`,
  :class:`CamUnit` (figures 2-4),
- the transaction API: :func:`open_session` over the cycle
  (:class:`CamSession`), batch and audit engines,
- the golden model: :class:`ReferenceCam`,
- measurement: :func:`measure_cell`, :func:`measure_block`,
  :func:`unit_scaling`, :func:`measure_unit_performance` (section IV).
"""

from repro.core.batch import (
    ENGINES,
    AuditDivergence,
    AuditReport,
    AuditSession,
    BatchSession,
    open_session,
)
from repro.core.analysis import (
    BlockReport,
    CellReport,
    UnitPerfReport,
    UnitScalingReport,
    measure_block,
    measure_cell,
    measure_unit_performance,
    our_survey_row,
    unit_scaling,
)
from repro.core.block import CamBlock
from repro.core.cell import CamCell
from repro.core.config import (
    BUFFER_BLOCK_THRESHOLD,
    BUFFER_UNIT_THRESHOLD,
    BlockConfig,
    CellConfig,
    UnitConfig,
    unit_for_entries,
)
from repro.core.encoder import ResultEncoder, pack_match_bits
from repro.core.group import Allocation, BlockAddressController
from repro.core.mask import (
    CamEntry,
    binary_entry,
    entry_for,
    range_entry,
    ternary_entry,
    ternary_entry_from_pattern,
    width_mask,
)
from repro.core.reference import ReferenceCam
from repro.core.routing import PostRouter, RoutingCompute, RoutingTable
from repro.core.session import CamSession, SearchStats, UpdateStats
from repro.core.stats import BlockStats, UnitStats, collect_stats, publish_stats
from repro.core.types import (
    CamBackend,
    CamStore,
    CamType,
    Encoding,
    SearchBatch,
    SearchResult,
)
from repro.core.unit import CamUnit
from repro.core.verification import (
    CheckReport,
    Divergence,
    check_equivalence,
)
from repro.core.wide import WideCamSession, WideEntry, wide_binary, wide_ternary

__all__ = [
    "Allocation",
    "AuditDivergence",
    "AuditReport",
    "AuditSession",
    "BatchSession",
    "ENGINES",
    "open_session",
    "BUFFER_BLOCK_THRESHOLD",
    "BUFFER_UNIT_THRESHOLD",
    "BlockAddressController",
    "BlockConfig",
    "BlockReport",
    "BlockStats",
    "CamBackend",
    "CamBlock",
    "CamCell",
    "CamEntry",
    "CamSession",
    "CamStore",
    "CamType",
    "CamUnit",
    "CellConfig",
    "CellReport",
    "CheckReport",
    "Divergence",
    "check_equivalence",
    "Encoding",
    "PostRouter",
    "ReferenceCam",
    "ResultEncoder",
    "RoutingCompute",
    "RoutingTable",
    "SearchBatch",
    "SearchResult",
    "SearchStats",
    "UnitConfig",
    "UnitPerfReport",
    "UnitStats",
    "UnitScalingReport",
    "UpdateStats",
    "WideCamSession",
    "WideEntry",
    "wide_binary",
    "wide_ternary",
    "binary_entry",
    "collect_stats",
    "entry_for",
    "measure_block",
    "measure_cell",
    "measure_unit_performance",
    "our_survey_row",
    "pack_match_bits",
    "publish_stats",
    "range_entry",
    "ternary_entry",
    "ternary_entry_from_pattern",
    "unit_for_entries",
    "unit_scaling",
    "width_mask",
]
