"""Self-service equivalence checking for arbitrary CAM configurations.

The test suite proves the shipped configurations against the golden
model; a downstream user who builds a *custom* configuration (unusual
widths, encodings, group counts) can prove theirs the same way:

    report = check_equivalence(my_config, operations=400, seed=7)
    assert report.passed, report.summary()

The checker drives one random-but-reproducible stream of updates,
multi-key searches, deletes, regroups and resets through an engine and
the golden :class:`ReferenceCam`, comparing every result bit for bit.
On the default ``engine="audit"`` the session is an
:class:`~repro.core.batch.AuditSession` that replays every operation
on a cycle-accurate shadow, so the same run also proves the vectorized
batch engine equal to the register-accurate model in results and
cycle counts: the audit report's divergences are folded into this
report, attributed to the operation that caused them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.batch import AuditSession, open_session
from repro.core.config import UnitConfig
from repro.core.mask import (
    binary_entry,
    range_entry,
    ternary_entry,
)
from repro.core.reference import ReferenceCam
from repro.core.types import CamType, SearchResult
from repro.dsp.primitives import mask_for
from repro.errors import ConfigError


@dataclass
class Divergence:
    """One observed mismatch, raised by operation ``operation``."""

    operation: int
    kind: str
    detail: str


@dataclass
class CheckReport:
    """Outcome of one equivalence run."""

    operations: int
    searches: int = 0
    updates: int = 0
    deletes: int = 0
    resets: int = 0
    regroups: int = 0
    simulated_cycles: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "PASS" if self.passed else (
            f"FAIL ({len(self.divergences)} divergences, first: "
            f"{self.divergences[0]})"
        )
        return (
            f"{verdict}: {self.operations} ops "
            f"({self.updates} updates, {self.searches} searches, "
            f"{self.deletes} deletes, {self.resets} resets, "
            f"{self.regroups} regroups) in {self.simulated_cycles} cycles"
        )


def _random_entry(rng: np.random.Generator, cam_type: CamType, width: int):
    value = int(rng.integers(0, 1 << width))
    if cam_type is CamType.BINARY:
        return binary_entry(value, width)
    if cam_type is CamType.TERNARY:
        dont_care = int(rng.integers(0, 1 << width))
        return ternary_entry(value & ~dont_care & mask_for(width),
                             dont_care, width)
    low_bits = int(rng.integers(0, width))
    extent = 1 << low_bits
    start = (value // extent) * extent
    return range_entry(start, start + extent - 1, width)


def _describe(result: SearchResult) -> str:
    return (f"hit={result.hit} addr={result.address} "
            f"vec={result.match_vector:#x}")


def check_equivalence(
    config: UnitConfig,
    operations: int = 200,
    seed: int = 0,
    engine: str = "audit",
) -> CheckReport:
    """Drive one random workload through an engine and the golden model.

    ``engine`` selects the execution engine under test ("cycle",
    "batch" or "audit"). The audit engine runs with every episode
    shadowed (``audit_sample=1.0``) and non-strict, so each batch/cycle
    disagreement becomes a divergence in the report instead of an
    exception.
    """
    if operations < 1:
        raise ConfigError(f"operations must be >= 1, got {operations}")
    rng = np.random.default_rng(seed)
    if engine == "audit":
        session = AuditSession(config, audit_sample=1.0, strict=False)
    else:
        session = open_session(config, engine=engine)
    audit = getattr(session, "audit_report", None)
    reference = ReferenceCam(session.capacity)
    cam_type = config.block.cell.cam_type
    width = config.data_width
    divisors = [d for d in range(1, config.num_blocks + 1)
                if config.num_blocks % d == 0]
    report = CheckReport(operations=operations)
    folded = 0

    def compare(index: int, kind: str, key: int, got, golden) -> None:
        if (got.hit, got.address, got.match_vector, got.match_count) != (
            golden.hit, golden.address, golden.match_vector,
            golden.match_count,
        ):
            report.divergences.append(Divergence(
                index, f"{kind} (golden)",
                f"key {key:#x}: engine {_describe(got)} / "
                f"golden {_describe(golden)}",
            ))

    for index in range(operations):
        free = reference.capacity - reference.occupancy
        roll = rng.random()
        if roll < 0.35 and free > 0:
            entries = [_random_entry(rng, cam_type, width)
                       for _ in range(min(free, int(rng.integers(1, 5))))]
            session.update(entries)
            reference.update(entries)
            report.updates += 1
        elif roll < 0.80:
            count = int(rng.integers(1, 2 * session.num_groups + 2))
            keys = [int(k) for k in rng.integers(0, 1 << width, count)]
            for key, got, golden in zip(keys, session.search(keys),
                                        reference.search_many(keys)):
                compare(index, "search", key, got, golden)
            report.searches += 1
        elif roll < 0.90 and reference.occupancy:
            key = int(rng.integers(0, 1 << width))
            compare(index, "delete", key,
                    session.delete(key), reference.delete(key))
            report.deletes += 1
        elif roll < 0.95 and len(divisors) > 1:
            session.set_groups(int(divisors[rng.integers(0, len(divisors))]))
            # Regrouping flushes content; the reference starts over at
            # the new per-group capacity.
            reference = ReferenceCam(session.capacity)
            report.regroups += 1
        else:
            session.reset()
            reference.reset()
            report.resets += 1
        if session.occupancy != reference.occupancy:
            report.divergences.append(Divergence(
                index, "occupancy",
                f"engine {session.occupancy} / golden {reference.occupancy}",
            ))
        if audit is not None:
            for found in audit.divergences[folded:]:
                report.divergences.append(Divergence(
                    index, f"{found.operation} (cycle)", found.detail))
            folded = len(audit.divergences)

    report.simulated_cycles = session.cycle
    return report
