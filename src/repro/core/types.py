"""Shared types of the CAM core: CAM kinds, results,
and the backend protocols every CAM implementation conforms to."""

from __future__ import annotations

import enum
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.dsp.primitives import popcount
from repro.errors import ConfigError


class CamType(enum.Enum):
    """The three CAM flavours the architecture can be configured as.

    All three use the same DSP cell datapath; only the MASK differs
    (paper Table II), which is why Table V reports identical cost and
    latency for each.
    """

    BINARY = "binary"
    TERNARY = "ternary"
    RANGE = "range"


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

    def __init__(self, key: int, hit: bool, address: Optional[int],
                 match_vector: int, match_count: int,
                 encoding: Encoding = Encoding.PRIORITY) -> None:
        # Fills the frozen fields in place: half the cost of the six
        # object.__setattr__ calls of the generated __init__, and a
        # search or a wire frame builds one result per key.
        fields = self.__dict__
        fields["key"] = key
        fields["hit"] = hit
        fields["address"] = address
        fields["match_vector"] = match_vector
        fields["match_count"] = match_count
        fields["encoding"] = encoding

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


def check_key(key) -> int:
    """``key`` as an int; a key outside int64 is a ConfigError."""
    if not -(1 << 63) <= key < 1 << 63:
        raise ConfigError(f"key {key:#x} does not fit in int64")
    return int(key)


def key_array(keys) -> np.ndarray:
    """Search keys as a fresh int64 array, never the caller's buffer; a
    key outside int64 is a ConfigError, as in :func:`check_key`."""
    if isinstance(keys, np.ndarray) and keys.dtype == np.int64:
        return keys.copy()
    try:
        return np.fromiter(keys, dtype=np.int64)
    except OverflowError:
        raise ConfigError("keys must fit in int64") from None


class SearchBatch(abc.Sequence):
    """Columnar outcome of one search call: every key's answer at once.

    The software counterpart of the block result encoders, which
    condense all match lines of a beat into one bus word per query:
    ``keys``, ``hits``, ``addresses`` (first match, ``-1`` on a miss)
    and ``counts`` are NumPy columns, and the matches themselves are
    kept as coordinates -- ``rows`` (key index) and ``cols`` (address),
    sorted by row, then address -- so no per-key match vector is built
    until a view asks for one.

    As a sequence the batch is the per-key view: ``batch[i]``,
    iteration and ``len`` give exactly the :class:`SearchResult` of
    each key, and a batch compares equal to a sequence of equal
    results, in either operand order.
    """

    def __init__(self, keys, rows: np.ndarray, cols: np.ndarray,
                 encoding: Encoding = Encoding.PRIORITY) -> None:
        #: Searched keys as given (unmasked), in call order.
        self.keys = np.asarray(keys, dtype=np.int64)
        self.rows = rows
        self.cols = cols
        self.encoding = encoding
        self._views: Optional[List[SearchResult]] = None

    @classmethod
    def gather(cls, keys, matches: Sequence[Tuple[np.ndarray, np.ndarray]],
               encoding: Encoding, disjoint: bool = False) -> "SearchBatch":
        """Batch over ``keys`` from one or more ``(rows, cols)`` match
        arrays (merged shards or groups), each sorted by row, then
        address. When the arrays are ``disjoint`` (no key matches in two
        of them), a stable sort by row alone restores the order."""
        rows = np.concatenate([r for r, _ in matches])
        cols = np.concatenate([c for _, c in matches])
        if disjoint:
            order = rows.argsort(kind="stable")
        else:
            order = np.lexsort((cols, rows))
        return cls(keys, rows[order], cols[order], encoding)

    @classmethod
    def from_results(cls, results: Sequence[SearchResult],
                     encoding: Encoding) -> "SearchBatch":
        """Columnar form of per-key results (the cycle engine's output)."""
        rows: List[int] = []
        cols: List[int] = []
        for index, result in enumerate(results):
            vector = result.match_vector
            while vector:
                low = vector & -vector
                rows.append(index)
                cols.append(low.bit_length() - 1)
                vector ^= low
        return cls([r.key for r in results], np.array(rows, dtype=np.int64),
                   np.array(cols, dtype=np.int64), encoding)

    def rebase(self, table: np.ndarray,
               ascending: bool = False) -> "SearchBatch":
        """The same answers with every address ``a`` moved to
        ``table[a]`` (shard-local to global addresses). A strictly
        ``ascending`` table keeps each key's addresses in order, so the
        re-sort is skipped."""
        cols = table[self.cols]
        if ascending:
            return SearchBatch(self.keys, self.rows, cols, self.encoding)
        order = np.lexsort((cols, self.rows))
        return SearchBatch(self.keys, self.rows[order], cols[order],
                           self.encoding)

    # ------------------------------------------------------------------
    @cached_property
    def counts(self) -> np.ndarray:
        """Matches per key."""
        return np.bincount(self.rows, minlength=self.keys.size)

    @cached_property
    def hits(self) -> np.ndarray:
        return self.counts > 0

    @cached_property
    def addresses(self) -> np.ndarray:
        """Lowest matching address per key; ``-1`` on a miss."""
        addresses = np.full(self.keys.size, -1, dtype=np.int64)
        if self.rows.size:
            first = np.flatnonzero(np.diff(self.rows, prepend=-1))
            addresses[self.rows[first]] = self.cols[first]
        return addresses

    def _results(self) -> List[SearchResult]:
        if self._views is None:
            # One pass over the matches in Python: cheaper than the
            # NumPy columns for the few-key batches of point lookups.
            size = self.keys.size
            vectors, counts = [0] * size, [0] * size
            firsts: List[Optional[int]] = [None] * size
            for row, col in zip(self.rows.tolist(), self.cols.tolist()):
                if not counts[row]:  # sorted: a row's first is its lowest
                    firsts[row] = col
                vectors[row] |= 1 << col
                counts[row] += 1
            encoding = self.encoding
            self._views = [
                SearchResult(key, count > 0, first, vector, count, encoding)
                for key, first, vector, count in zip(
                    self.keys.tolist(), firsts, vectors, counts)
            ]
        return self._views

    def __len__(self) -> int:
        return self.keys.size

    def __getitem__(self, index):
        return self._results()[index]

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self._results())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SearchBatch):
            return (self.encoding is other.encoding
                    and np.array_equal(self.keys, other.keys)
                    and np.array_equal(self.rows, other.rows)
                    and np.array_equal(self.cols, other.cols))
        if isinstance(other, abc.Sequence) and not isinstance(other, str):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SearchBatch({self._results()!r})"


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
