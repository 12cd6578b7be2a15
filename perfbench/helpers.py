"""Measurement helpers shared by the stack benchmark's workloads.

- :func:`tail_percentile` -- a nearest-rank percentile that is lowered
  until at least ``min_beyond`` samples lie above it, so a "p99" is
  never read off the last one or two samples of a short run;
- :func:`covered_time` / :func:`self_times` -- a span's self time is
  its duration minus the part of its interval that its child spans
  cover (children may overlap each other and stick out of the parent);
- :class:`LiveModel` -- the value -> live-addresses reference model
  every answer is checked against. It follows
  :class:`repro.core.ReferenceCam` semantics: a stored word's global
  address is its insertion index, a delete invalidates every copy of
  the key and leaves holes that only a reset reclaims;
- :func:`calibration_burst` / :func:`scaled_seconds` -- the host's
  slowdown next to a measurement, and the measurement's time at the
  reference host's speed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Thread CPU seconds :func:`calibration_burst` takes on the reference
#: host while nothing else runs on it (README, "Host speed").
CALIBRATION_REF_S = 0.001

_CAL_TABLE = {i: (i * 40503) & 0xFFFF for i in range(512)}
_CAL_WORDS = np.arange(4096, dtype=np.uint32)


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """Nearest-rank ``q``-quantile with ``min_beyond`` samples above it.

    Returns ``(value, effective_q)``. When the run is too short for
    ``q`` itself, the rank drops to the highest one that still leaves
    ``min_beyond`` samples beyond it, but never below the median.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    count = len(ordered)
    rank = min(math.ceil(q * count), count - min_beyond)
    rank = max(rank, math.ceil(0.5 * count), 1)
    return ordered[rank - 1], rank / count


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def calibration_burst() -> float:
    """Thread CPU seconds of a fixed burst of interpreter and NumPy work.

    The host shares its cores with other machines' work, which slows
    even the thread's CPU clock, by up to 2x in spells of seconds to
    minutes. The burst is timed next to every measured round and setup;
    its time over :data:`CALIBRATION_REF_S` is the host's slowdown then.
    Its mix (dictionary and list work in the interpreter, small array
    operations) resembles the benchmark's own work, so both slow alike.
    """
    started = time.thread_time()
    for _ in range(6):
        total, out = 0, []
        for i in range(400):
            total += _CAL_TABLE[i & 511] ^ (i * 3)
            out.append(total & 0xFFFF)
        out.sort()
        words = _CAL_WORDS
        for _ in range(20):
            words = (words ^ 0x5A5A) + 1
            int(np.count_nonzero(words & 1))
    return time.thread_time() - started


def scaled_seconds(seconds: float, cpu: float, slowdown: float) -> float:
    """``seconds`` with its CPU part at the reference host's speed.

    ``cpu`` is the thread CPU time inside ``seconds``; the rest was
    spent waiting (timers, the socket), which the host's speed does not
    change.
    """
    cpu = min(cpu, seconds)
    return cpu / slowdown + (seconds - cpu)


def covered_time(start: float, end: float,
                 intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class Span:
    """One timed call into a layer.

    ``parents`` holds the indexes of the spans that caused it: usually
    one, several when one batched call serves many waiting requests.
    ``units`` is the work it carried (keys, words or requests).
    """

    layer: str
    op: str
    parents: Tuple[int, ...] = ()
    units: int = 1
    start: float = 0.0
    end: float = 0.0
    #: simulated cycles the call spent, summed over replica members.
    cycles: int = 0
    #: the preferred replica's share of ``cycles`` (replica writes).
    preferred_cycles: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the child-covered interval."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        for parent in span.parents:
            children.setdefault(parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = covered_time(
            span.start, span.end,
            ((spans[c].start, spans[c].end) for c in children.get(index, ())),
        )
        out.append(span.duration - covered)
    return out


class LiveModel:
    """value -> ascending live global addresses (ReferenceCam semantics)."""

    def __init__(self, words: Iterable[int] = ()) -> None:
        self.slots: List[Optional[int]] = []
        self.live: Dict[int, List[int]] = {}
        self.insert(words)

    def insert(self, words: Iterable[int]) -> None:
        for word in words:
            word = int(word)
            self.live.setdefault(word, []).append(len(self.slots))
            self.slots.append(word)

    def lookup(self, key: int) -> Tuple[bool, Optional[int]]:
        """``(hit, first global address)`` as the CAM must answer."""
        addresses = self.live.get(int(key))
        if addresses:
            return True, addresses[0]
        return False, None

    def delete(self, key: int) -> Tuple[bool, Optional[int]]:
        """Invalidate every copy of ``key``; returns what it matched."""
        answer = self.lookup(key)
        for address in self.live.pop(int(key), ()):
            self.slots[address] = None
        return answer


def answer_of(result) -> Tuple[bool, Optional[int]]:
    """``(hit, first address)`` of a :class:`repro.core.SearchResult`."""
    return bool(result.hit), (result.address if result.hit else None)


def sharded_slots(snapshot) -> List[Optional[int]]:
    """Global slot list (``None`` for holes) of a sharded snapshot."""
    meta = snapshot.meta
    slots: List[Optional[int]] = [None] * int(meta["global_count"])
    assigned = [False] * len(slots)
    for table, child in zip(meta["global_addrs"], snapshot.children):
        entries = child.groups[0]
        if len(entries) != len(table):
            raise ValueError(
                f"shard holds {len(entries)} slots but maps {len(table)}"
            )
        for address, entry in zip(table, entries):
            assigned[address] = True
            slots[address] = entry.value if entry.live else None
    if not all(assigned):
        raise ValueError("some global addresses are held by no shard")
    return slots


def reference_slots(reference) -> List[Optional[int]]:
    """Slot list of a :class:`repro.core.ReferenceCam`."""
    return [None if entry is None else entry.value
            for entry in reference.entries()]
