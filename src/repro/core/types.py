"""Shared types of the CAM core: CAM kinds, operations, results,
and the backend protocols every CAM implementation conforms to."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.dsp.primitives import popcount


class CamType(enum.Enum):
    """The three CAM flavours the architecture can be configured as.

    All three use the same DSP cell datapath; only the MASK differs
    (paper Table II), which is why Table V reports identical cost and
    latency for each.
    """

    BINARY = "binary"
    TERNARY = "ternary"
    RANGE = "range"


class OpKind(enum.Enum):
    """Operations accepted on the CAM block/unit input bus."""

    UPDATE = "update"
    SEARCH = "search"
    RESET = "reset"
    CONFIGURE = "configure"


class Encoding(enum.Enum):
    """Result-encoding schemes of the block output encoder (Table III)."""

    #: Lowest matching cell address plus a hit flag (default).
    PRIORITY = "priority"
    #: Raw per-cell match bit vector.
    ONE_HOT = "one_hot"
    #: Binary address with a multi-match flag.
    BINARY = "binary"
    #: Number of matching cells (set-intersection friendly).
    COUNT = "count"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search operation.

    All derived views (first address, count, vector) are carried so
    that any encoder scheme can serialise the result onto the output
    bus via :meth:`encoded`.
    """

    key: int
    hit: bool
    address: Optional[int]
    match_vector: int
    match_count: int
    encoding: Encoding = Encoding.PRIORITY

    @classmethod
    def from_vector(
        cls, key: int, match_vector: int, encoding: Encoding = Encoding.PRIORITY
    ) -> "SearchResult":
        """Build a result from the raw per-cell match vector."""
        hit = match_vector != 0
        address = None
        if hit:
            address = (match_vector & -match_vector).bit_length() - 1
        return cls(
            key=key,
            hit=hit,
            address=address,
            match_vector=match_vector,
            match_count=popcount(match_vector),
            encoding=encoding,
        )

    def offset(self, base: int) -> "SearchResult":
        """Rebase cell-local addresses to unit-global addresses."""
        return SearchResult(
            key=self.key,
            hit=self.hit,
            address=None if self.address is None else self.address + base,
            match_vector=self.match_vector << base,
            match_count=self.match_count,
            encoding=self.encoding,
        )

    def encoded(self, size: int) -> int:
        """Serialise onto the output bus per the configured encoding."""
        if self.encoding is Encoding.ONE_HOT:
            return self.match_vector
        if self.encoding is Encoding.COUNT:
            return self.match_count
        address_bits = max(1, (max(size - 1, 1)).bit_length())
        hit_bit = 1 << address_bits
        if not self.hit:
            return 0
        if self.encoding is Encoding.PRIORITY:
            return hit_bit | (self.address or 0)
        # Encoding.BINARY: hit | multi-match flag | address.
        multi = 1 << (address_bits + 1) if self.match_count > 1 else 0
        return multi | hit_bit | (self.address or 0)


@runtime_checkable
class CamStore(Protocol):
    """Minimal content surface shared by every CAM model.

    This is the contract the golden :class:`~repro.core.ReferenceCam`
    satisfies: enough to fill a CAM, query it, wipe it, and carry its
    content across processes as a versioned snapshot.  Implementations
    are free to take richer signatures (the engines accept key batches
    where the reference takes one key); the protocol pins the *names*,
    which is what duck-typed call sites and the conformance suite in
    ``tests/core/test_backend_protocol.py`` rely on.

    Use ``isinstance(obj, CamStore)`` for runtime checks; ``issubclass``
    is unsupported because the protocol carries data members.
    """

    @property
    def capacity(self) -> int: ...

    @property
    def occupancy(self) -> int: ...

    def update(self, words: Sequence[Any], *args: Any, **kwargs: Any) -> Any: ...

    def search(self, *args: Any, **kwargs: Any) -> Any: ...

    def reset(self) -> None: ...

    def snapshot(self) -> Any: ...

    def restore(self, snapshot: Any, *args: Any, **kwargs: Any) -> None: ...


@runtime_checkable
class CamBackend(CamStore, Protocol):
    """Full engine surface that :class:`~repro.service.ShardedCam`,
    :class:`~repro.service.CamService`, :class:`~repro.service.ReplicaSet`
    and the :mod:`repro.apps` case studies program against.

    Everything constructed through :func:`repro.open_session` conforms:
    the cycle-accurate :class:`~repro.core.CamSession`, the vectorized
    :class:`~repro.core.BatchSession`, the differential audit
    session, the sharded facade itself, and replica sets -- which is
    what lets shards, replicas and single units substitute for each
    other behind the service layer.
    """

    @property
    def cycle(self) -> int: ...

    @property
    def num_groups(self) -> int: ...

    @property
    def engine_name(self) -> str: ...

    @property
    def search_latency(self) -> int: ...

    @property
    def update_latency(self) -> int: ...

    @property
    def words_per_beat(self) -> int: ...

    def search_one(self, key: int, group: Optional[int] = None) -> "SearchResult": ...

    def contains(self, key: int) -> bool: ...

    def delete(self, key: int) -> "SearchResult": ...

    def set_groups(self, num_groups: int) -> None: ...

    def idle(self, cycles: int = 1) -> None: ...

    def resources(self) -> Any: ...


@dataclass(frozen=True)
class UpdateReceipt:
    """Outcome of one update beat: where each word was stored."""

    #: (block_id, cell_id) per stored word, in word order.
    locations: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)
    #: Number of words written by the beat.
    words_written: int = 0

    @classmethod
    def for_words(cls, locations: List[Tuple[int, int]]) -> "UpdateReceipt":
        return cls(locations=tuple(locations), words_written=len(locations))
